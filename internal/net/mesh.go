package net

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Mesh is the coordinator-free averaging fabric of one replica in a
// multi-process elastic-averaging job. Under the default FullMesh
// topology it is the classic full mesh: a dedicated send connection to
// every peer plus a dedicated receive connection from every peer, each
// ordered replica pair (p → q) owning one connection — p dials, q
// accepts — so formation needs no leader and no tie-breaking. Under a
// sparse Topology (Ring, Hierarchical) the same machinery forms only
// the topology's O(N) connections, Broadcast sends to the topology's
// first hops, and Forward/Route relay frames onward so every replica
// is still reached.
type Mesh struct {
	// Self is this process's replica id; N is the job's total replica
	// count (peers + self).
	Self int
	N    int

	topo    Topology // connection/flow shape
	accepts []int    // peers allowed to hold an inbound connection, ascending
	hello   []byte   // this replica's handshake blob (see dialer)

	sends map[int]Conn // outbound, keyed by peer id (dialed by us)
	recvs map[int]Conn // inbound, keyed by peer id (accepted by us)
	ln    Listener

	// codecMasks records each dialed-in peer's supported-compression
	// bitmask from its handshake.
	codecMasks map[int]uint32

	mu      sync.Mutex
	offsets map[int]time.Duration // peer clock − local clock, from SyncClocks

	// Self-healing state (EnableSelfHeal). epochs tracks the inbound
	// session epoch accepted from each peer; onInbound is told about
	// every replacement inbound connection so the averager can spawn a
	// fresh receive loop for it.
	epochs     map[int]uint32
	onInbound  func(id int, c Conn)
	healCancel context.CancelFunc

	closed sync.Once
}

// dialRetryBase paces redials while peer processes are still starting;
// the backoff doubles up to dialRetryMax.
const (
	dialRetryBase = 25 * time.Millisecond
	dialRetryMax  = 500 * time.Millisecond
)

// FormTopologyOn forms the averaging fabric of replica self — the one
// way a Mesh comes to exist. ln is this replica's already-bound
// listener (bind first, so a ":0" listen's kernel-chosen address can go
// into the peers' maps); the mesh owns it: Mesh.Close closes it, and so
// does any formation failure. peers maps every other replica's id to
// its dial address; topo (nil = FullMesh) decides which of them this
// replica dials and accepts, so a Ring or Hierarchical fabric forms
// with O(N) connections instead of O(N²). Dials retry until ctx
// expires, so peer processes may start in any order.
//
// Every connection, on every topology, opens with the one mesh
// handshake (dialer sends it, admit checks it): the sender's id and
// fingerprint — topology, group size, job size — and its
// supported-compression mask. Two processes that disagree about the
// fabric both fail formation, each naming both fingerprints, instead
// of one forming and stranding frames mid-round.
func FormTopologyOn(ctx context.Context, tr Transport, ln Listener, topo Topology, self int, peers map[int]string) (*Mesh, error) {
	n := len(peers) + 1
	if topo == nil {
		topo = FullMesh{}
	}
	hello, err := jobHello(topo, self, peers)
	if err != nil {
		ln.Close()
		return nil, err
	}
	m := &Mesh{
		Self: self, N: n, topo: topo, accepts: AcceptsFrom(topo, self, n), hello: hello,
		sends: make(map[int]Conn), recvs: make(map[int]Conn), ln: ln,
		codecMasks: make(map[int]uint32),
	}

	var wg sync.WaitGroup
	var errs []error
	fail := func(err error) {
		m.mu.Lock()
		errs = append(errs, err)
		m.mu.Unlock()
	}

	// Dial the topology's outbound peers, each connection opening with
	// the handshake at session epoch 0.
	for _, id := range topo.Dials(self, n) {
		addr, ok := peers[id]
		if !ok {
			fail(fmt.Errorf("net: topology %s requires a connection to replica %d, which has no address", topo.Name(), id))
			continue
		}
		wg.Add(1)
		go func(id int, addr string) {
			defer wg.Done()
			c, err := dialRetry(ctx, m.dialer(tr, addr))
			if err != nil {
				fail(fmt.Errorf("net: dial replica %d at %s: %w", id, addr, err))
				return
			}
			m.mu.Lock()
			m.sends[id] = c
			m.mu.Unlock()
		}(id, addr)
	}

	// Accept one connection from every inbound peer; its handshake says
	// who it is and must match this replica's view of the job.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range m.accepts {
			c, err := ln.Accept(ctx)
			if err != nil {
				fail(fmt.Errorf("net: accept: %w", err))
				return
			}
			id, _, err := m.admit(ctx, c)
			if err == nil && m.recvs[id] != nil {
				err = fmt.Errorf("net: duplicate connection from replica %d", id)
			}
			if err != nil {
				c.Close()
				fail(err)
				return
			}
			m.recvs[id] = c
		}
	}()
	wg.Wait()
	if len(errs) > 0 {
		m.Close()
		return nil, errors.Join(errs...)
	}
	return m, nil
}

// jobHello checks replica self's view of the job — its id, its peers'
// ids, the topology's parameters — and encodes the fingerprint its
// handshake carries.
func jobHello(topo Topology, self int, peers map[int]string) ([]byte, error) {
	n := len(peers) + 1
	if self < 0 || self >= n {
		return nil, fmt.Errorf("net: replica id %d outside [0, %d)", self, n)
	}
	for id := range peers {
		if id == self {
			return nil, fmt.Errorf("net: peer list contains self (replica %d)", self)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("net: peer id %d outside [0, %d) — ids must be contiguous", id, n)
		}
	}
	if err := topo.Validate(n); err != nil {
		return nil, err
	}
	return AppendGroupHello(nil, GroupHello{
		Topology: topo.Name(), Group: groupSize(topo, n), N: n, Codecs: AllCodecsMask(),
	})
}

// dialer returns the DialFunc of this replica's connections to addr:
// dial once, then send the mesh handshake — a FrameGroupHello whose
// Replica is this replica, whose Round is the session epoch (0 at
// formation, bumped by every self-heal re-dial), and whose blob is this
// replica's fingerprint and codec mask. Formation and self-heal both
// dial through it; admit is its one reader.
func (m *Mesh) dialer(tr Transport, addr string) DialFunc {
	return func(ctx context.Context, epoch uint32) (Conn, error) {
		c, err := tr.Dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		hello := &Frame{Type: FrameGroupHello, Replica: uint32(m.Self), Round: epoch, Blob: m.hello}
		if err := c.Send(ctx, hello); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
}

// admit reads and checks the mesh handshake a freshly accepted
// connection opens with, for formation and self-heal alike, in this
// order: the sender is a peer this replica accepts under its topology,
// it believes the same job size, and it runs the same topology and
// group size. It then records the sender's codec mask and returns the
// sender's id and session epoch. Each error names both sides.
func (m *Mesh) admit(ctx context.Context, c Conn) (id int, epoch uint32, err error) {
	f, err := c.Recv(ctx)
	if err != nil || f.Type != FrameGroupHello {
		return 0, 0, fmt.Errorf("net: handshake: want group hello, got (%v, %v)", f, err)
	}
	id = int(f.Replica)
	if !slices.Contains(m.accepts, id) {
		return 0, 0, fmt.Errorf("net: hello from replica %d, but replica %d only accepts connections from replicas %v under topology %s",
			id, m.Self, m.accepts, m.topo.Name())
	}
	gh, err := ParseGroupHello(f.Blob)
	if err != nil {
		return 0, 0, fmt.Errorf("net: group hello from replica %d: %w", id, err)
	}
	if gh.N != m.N {
		return 0, 0, fmt.Errorf("net: replica %d believes the job has %d replicas, replica %d has %d (and accepts replicas %v)",
			id, gh.N, m.Self, m.N, m.accepts)
	}
	if group := groupSize(m.topo, m.N); gh.Topology != m.topo.Name() || gh.Group != group {
		return 0, 0, fmt.Errorf("net: replica %d runs topology %s (group %d, %d replicas), replica %d runs %s (group %d, %d replicas)",
			id, gh.Topology, gh.Group, gh.N, m.Self, m.topo.Name(), group, m.N)
	}
	m.mu.Lock()
	m.codecMasks[id] = gh.Codecs
	m.mu.Unlock()
	return id, f.Round, nil
}

// FormJob forms every replica of an n-replica job inside one process,
// concurrently, exactly as n processes would: replica i owns the
// already-bound listener lns[i], dials with trs[i], and reaches each
// other replica j at lns[j].Addr(). If any replica fails, the others
// are cancelled, every mesh formed is closed, and the error names the
// first replica that failed.
func FormJob(ctx context.Context, trs []Transport, lns []Listener, topo Topology) ([]*Mesh, error) {
	if len(trs) != len(lns) {
		return nil, fmt.Errorf("net: %d transports for %d listeners", len(trs), len(lns))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	meshes := make([]*Mesh, len(lns))
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for i := range lns {
		peers := make(map[int]string, len(lns)-1)
		for j, ln := range lns {
			if j != i {
				peers[j] = ln.Addr()
			}
		}
		wg.Add(1)
		go func(i int, peers map[int]string) {
			defer wg.Done()
			m, err := FormTopologyOn(ctx, trs[i], lns[i], topo, i, peers)
			if err != nil {
				once.Do(func() {
					first = fmt.Errorf("net: form replica %d: %w", i, err)
					cancel()
				})
				return
			}
			meshes[i] = m
		}(i, peers)
	}
	wg.Wait()
	if first != nil {
		for _, m := range meshes {
			if m != nil {
				m.Close()
			}
		}
		return nil, first
	}
	return meshes, nil
}

// groupSize resolves the negotiated group-size field of a topology's
// fingerprint (0 for ungrouped fabrics).
func groupSize(topo Topology, n int) int {
	if h, ok := topo.(Hierarchical); ok {
		return h.size(n)
	}
	return 0
}

// dialRetry runs dial at session epoch 0 until the peer's listener is
// up or ctx expires, paced by the shared transport backoff.
func dialRetry(ctx context.Context, dial DialFunc) (Conn, error) {
	backoff := Backoff{Base: dialRetryBase, Max: dialRetryMax}
	for {
		c, err := dial(ctx, 0)
		if err == nil {
			return c, nil
		}
		if err := backoff.Sleep(ctx); err != nil {
			return nil, err
		}
	}
}

// SyncClocks estimates every connected peer's clock offset with one
// ping/pong round trip per connection (round-trip midpoint, see
// clock.go). Each replica pings every outbound peer and answers exactly
// one ping per inbound peer — under the full mesh those are the same
// set; under a sparse topology each replica measures its topology
// neighbors only. The exchange is symmetric, deterministic in frame
// count, and leaves every connection quiescent. Call it after mesh
// formation and before the averager attaches (the averager's inbound
// loops also answer pings, so later re-syncs go through ResyncClock
// instead).
func (m *Mesh) SyncClocks(ctx context.Context) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	offsets := make(map[int]time.Duration, len(m.sends))
	for _, id := range m.Peers() {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			off, _, err := MeasureClockOffset(ctx, m.sends[id], m.Self)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("net: clock sync with replica %d: %w", id, err))
				return
			}
			offsets[id] = off
		}(id)
	}
	for _, id := range m.Inbound() {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			in := m.Recv(id)
			f, err := in.Recv(ctx)
			if err == nil {
				err = AnswerClockPing(ctx, in, m.Self, f)
			}
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("net: answering clock ping from replica %d: %w", id, err))
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	m.mu.Lock()
	m.offsets = offsets
	m.mu.Unlock()
	return nil
}

// ResyncClock re-measures one peer's offset over the outbound
// connection. The peer's inbound handler (the averager's inbound loop
// once attached) must be answering pings.
func (m *Mesh) ResyncClock(ctx context.Context, id int) (time.Duration, error) {
	c, ok := m.sends[id]
	if !ok {
		return 0, fmt.Errorf("net: no connection to replica %d", id)
	}
	off, _, err := MeasureClockOffset(ctx, c, m.Self)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	if m.offsets == nil {
		m.offsets = make(map[int]time.Duration)
	}
	m.offsets[id] = off
	m.mu.Unlock()
	return off, nil
}

// ClockOffset returns peer id's estimated clock minus the local clock,
// and whether SyncClocks has measured it.
func (m *Mesh) ClockOffset(id int) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	off, ok := m.offsets[id]
	return off, ok
}

// ClockOffsets returns a copy of the measured peer-clock offsets.
func (m *Mesh) ClockOffsets() map[int]time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]time.Duration, len(m.offsets))
	for id, off := range m.offsets {
		out[id] = off
	}
	return out
}

// Peers returns the outbound-connected peer ids in ascending order
// (every peer under the full mesh, the topology's dial set otherwise).
func (m *Mesh) Peers() []int {
	ids := make([]int, 0, len(m.sends))
	for id := range m.sends {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Inbound returns the peer ids this replica holds inbound connections
// from, in ascending order — the mirror of Peers under the topology.
// The averager spawns one receive loop per inbound peer.
func (m *Mesh) Inbound() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]int, 0, len(m.recvs))
	for id := range m.recvs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Topology returns the fabric shape the mesh was formed under.
func (m *Mesh) Topology() Topology { return m.topo }

// SupportsCodec reports whether every dialed-in peer advertised support
// for compression codec c in its handshake, on every topology: a job
// mixing builds that do not all understand c fails fast instead of
// sending frames a peer cannot decode.
func (m *Mesh) SupportsCodec(c Codec) bool {
	if c == CodecNone {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mask := range m.codecMasks {
		if mask&CodecMask(c) == 0 {
			return false
		}
	}
	return true
}

// Recv returns the inbound connection from peer id (frames that peer
// sent us). Under self-healing this is the connection of the latest
// accepted session; the averager is told about replacements through
// SetInboundHandler instead of re-calling Recv.
func (m *Mesh) Recv(id int) Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recvs[id]
}

// SetInboundHandler installs fn to be called with every replacement
// inbound connection the self-healing accept loop installs (peer id +
// the fresh connection). The handler typically spawns a receive loop.
func (m *Mesh) SetInboundHandler(fn func(id int, c Conn)) {
	m.mu.Lock()
	m.onInbound = fn
	m.mu.Unlock()
}

// Send transmits f on the outbound connection to peer id.
func (m *Mesh) Send(ctx context.Context, id int, f *Frame) error {
	c, ok := m.sends[id]
	if !ok {
		return fmt.Errorf("net: no connection to replica %d", id)
	}
	return c.Send(ctx, f)
}

// Broadcast sends f to the topology's first hops in ascending id order
// — every peer under the full mesh — returning the joined errors (nil
// if every send succeeded). On sparse topologies the receivers relay
// the frame onward (Forward), so one Broadcast still reaches all N
// replicas. A peer whose connection reports the frame dropped — a
// faulty link eating the update, or a self-healing connection
// mid-outage — is not an error: elastic averaging tolerates lost
// updates, and the round deadline closes rounds over whatever arrived.
func (m *Mesh) Broadcast(ctx context.Context, f *Frame) error {
	var errs []error
	for _, id := range m.topo.FirstHops(m.Self, m.N) {
		if err := m.sends[id].Send(ctx, f); err != nil && !errors.Is(err, ErrDropped) {
			errs = append(errs, fmt.Errorf("net: broadcast to replica %d: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// Forward relays a peer-originated frame onward along the topology:
// from names the peer the frame arrived from, and the topology's relay
// rule decides which neighbors (if any) must see it next so every
// broadcast reaches all N replicas exactly once. A no-op under the full
// mesh, where the origin reached everyone directly. Dropped frames are
// tolerated for the same reason Broadcast tolerates them.
func (m *Mesh) Forward(ctx context.Context, from int, f *Frame) error {
	var errs []error
	for _, id := range m.topo.Relays(m.Self, m.N, int(f.Replica), from) {
		c, ok := m.sends[id]
		if !ok {
			errs = append(errs, fmt.Errorf("net: relay to replica %d: no connection", id))
			continue
		}
		if err := c.Send(ctx, f); err != nil && !errors.Is(err, ErrDropped) {
			errs = append(errs, fmt.Errorf("net: relay to replica %d: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// Route sends a frame directed at one replica, hop-by-hop along the
// topology when no direct connection exists (the receiver of each hop
// forwards by the frame's destination — see the averager's ref-state
// handling). Directly connected peers get the frame in one send.
func (m *Mesh) Route(ctx context.Context, to int, f *Frame) error {
	if to == m.Self {
		return fmt.Errorf("net: replica %d cannot route to itself", to)
	}
	if _, ok := m.sends[to]; ok {
		return m.Send(ctx, to, f)
	}
	hop, err := m.topo.NextHopTo(m.Self, m.N, to)
	if err != nil {
		return err
	}
	return m.Send(ctx, hop, f)
}

// Addr reports the listener's bound address (for port-0 listens).
func (m *Mesh) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr()
}

// Close tears down every connection and the listener. Idempotent.
func (m *Mesh) Close() {
	m.closed.Do(func() {
		m.mu.Lock()
		cancel := m.healCancel
		recvs := make([]Conn, 0, len(m.recvs))
		for _, c := range m.recvs {
			recvs = append(recvs, c)
		}
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		for _, c := range m.sends {
			c.Close()
		}
		for _, c := range recvs {
			c.Close()
		}
		if m.ln != nil {
			m.ln.Close()
		}
	})
}

// fanOut is the averager's composed submit path in a multi-process job:
// a Send delivers to the local loopback (this process's reference loop)
// and broadcasts to every peer, so one Submit reaches all N reference
// copies. Recv and Close operate on the local end only — the mesh's
// lifecycle belongs to its owner.
type fanOut struct {
	Conn
	mesh *Mesh
}

// FanOut returns a Conn that sends to local and to every mesh peer.
func FanOut(local Conn, m *Mesh) Conn {
	if m == nil {
		return local
	}
	return &fanOut{Conn: local, mesh: m}
}

func (f *fanOut) Send(ctx context.Context, fr *Frame) error {
	err := f.Conn.Send(ctx, fr)
	if berr := f.mesh.Broadcast(ctx, fr); berr != nil && err == nil {
		err = berr
	}
	return err
}
