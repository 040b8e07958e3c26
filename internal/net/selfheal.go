package net

import (
	"context"
	"fmt"
	"time"

	"avgpipe/internal/obs"
)

// reconnectHelloTimeout bounds how long the reconnect accept loop waits
// for a freshly accepted connection to identify itself before dropping
// it (a half-open dial must not wedge admission of real peers).
const reconnectHelloTimeout = 5 * time.Second

// SelfHealConfig configures Mesh.EnableSelfHeal.
type SelfHealConfig struct {
	// Transport re-dials broken outbound connections.
	Transport Transport
	// Peers maps peer replica id → dial address, the same map the mesh
	// was formed with (every mesh peer must have an address).
	Peers map[int]string
	// MaxAttempts bounds the redials of one outage per peer; 0 retries
	// until the mesh closes.
	MaxAttempts int
	// Backoff builds the redial pacing for each outage (nil = transport
	// defaults).
	Backoff func() *Backoff
	// Events receives connection-lifecycle health events.
	Events *obs.EventLog
}

// EnableSelfHeal turns the mesh's fixed connections into self-healing
// ones. Outbound: every send connection is wrapped in a Reconn that
// re-dials with exponential backoff + jitter when the link breaks and
// re-runs the hello handshake under a bumped session epoch. Inbound:
// the formation listener keeps accepting after formation; a hello from
// a known peer with a newer session epoch (or epoch 0 — a fully
// restarted process starting a fresh session) replaces that peer's
// inbound connection and is announced through SetInboundHandler.
//
// Call it after FormTopologyOn and SyncClocks and before the averager
// attaches: it rewrites the send table, which is only safe while the
// mesh is quiescent.
func (m *Mesh) EnableSelfHeal(cfg SelfHealConfig) error {
	if cfg.Transport == nil {
		return fmt.Errorf("net: self-heal needs a transport to re-dial with")
	}
	for _, id := range m.Peers() {
		if cfg.Peers[id] == "" {
			return fmt.Errorf("net: self-heal has no dial address for replica %d", id)
		}
	}
	// A sparse fabric re-runs its topology fingerprint on every new
	// session, exactly as formation does — a restarted peer re-forms
	// with FormTopologyOn and expects the group hello after the hello.
	ghBlob, err := groupHelloBlob(m.topo, m.N)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	if m.healCancel != nil {
		m.mu.Unlock()
		cancel()
		return fmt.Errorf("net: self-heal already enabled")
	}
	m.healCancel = cancel
	m.epochs = make(map[int]uint32)
	m.mu.Unlock()

	for _, id := range m.Peers() {
		id, addr := id, cfg.Peers[id]
		dial := func(dctx context.Context, epoch uint32) (Conn, error) {
			c, err := cfg.Transport.Dial(dctx, addr)
			if err != nil {
				return nil, err
			}
			// Re-run the formation hello so the acceptor can re-verify
			// the job geometry; Round carries the session epoch.
			hello := &Frame{Type: FrameHello, Replica: uint32(m.Self), Meta: uint32(m.N), Round: epoch}
			if err := c.Send(dctx, hello); err != nil {
				c.Close()
				return nil, err
			}
			if ghBlob != nil {
				gh := &Frame{Type: FrameGroupHello, Replica: uint32(m.Self), Blob: ghBlob}
				if err := c.Send(dctx, gh); err != nil {
					c.Close()
					return nil, err
				}
			}
			return c, nil
		}
		m.sends[id] = NewReconn(m.sends[id], dial, ReconnConfig{
			Peer:        id,
			MaxAttempts: cfg.MaxAttempts,
			Backoff:     cfg.Backoff,
			Events:      cfg.Events,
		})
	}
	go m.acceptReconnects(ctx, cfg)
	return nil
}

// acceptReconnects keeps the formation listener alive after formation,
// admitting replacement inbound connections from peers that re-dialed.
func (m *Mesh) acceptReconnects(ctx context.Context, cfg SelfHealConfig) {
	for {
		c, err := m.ln.Accept(ctx)
		if err != nil {
			return // listener closed or self-heal cancelled
		}
		go m.admitReconnect(ctx, cfg, c)
	}
}

// admitReconnect validates one freshly accepted connection's hello and,
// if it is a legitimate new session from a known peer, swaps it in as
// that peer's inbound connection.
func (m *Mesh) admitReconnect(ctx context.Context, cfg SelfHealConfig, c Conn) {
	hctx, cancel := context.WithTimeout(ctx, reconnectHelloTimeout)
	defer cancel()
	f, err := c.Recv(hctx)
	if err != nil || f.Type != FrameHello {
		c.Close()
		return
	}
	id := int(f.Replica)
	if id == m.Self || id < 0 || id >= m.N || int(f.Meta) != m.N {
		c.Close()
		return
	}
	// Under a sparse topology only topology neighbors may hold an
	// inbound connection; a stray dial from a non-neighbor is refused.
	if m.acceptSet != nil && !m.acceptSet[id] {
		c.Close()
		return
	}
	// A sparse fabric's new session must re-prove the same topology
	// fingerprint formation checked — a restarted process configured
	// with a different fabric is refused, not averaged with.
	if m.topo != nil && m.topo.Name() != "mesh" {
		gf, err := c.Recv(hctx)
		if err != nil || gf.Type != FrameGroupHello {
			c.Close()
			return
		}
		gh, err := ParseGroupHello(gf.Blob)
		if err != nil || gh.Topology != m.topo.Name() ||
			gh.Group != groupSize(m.topo, m.N) || gh.N != m.N {
			c.Close()
			return
		}
		m.mu.Lock()
		m.codecMasks[id] = gh.Codecs
		m.mu.Unlock()
	}
	epoch := f.Round
	m.mu.Lock()
	// A session must move forward: a replayed or crossed dial from an
	// epoch we already admitted is refused. Epoch 0 is the exception —
	// it is a fully restarted process whose session numbering begins
	// again, so it resets the peer's epoch history.
	if last := m.epochs[id]; epoch != 0 && epoch <= last {
		m.mu.Unlock()
		c.Close()
		return
	}
	m.epochs[id] = epoch
	old := m.recvs[id]
	m.recvs[id] = c
	handler := m.onInbound
	m.mu.Unlock()
	if old != nil {
		old.Close() // unwedge the receive loop still parked on the dead conn
	}
	cfg.Events.Emit(obs.Event{Type: obs.EventReplicaConnect, Replica: id, Round: -1,
		Value: float64(epoch), Detail: fmt.Sprintf("inbound mesh session epoch %d", epoch)})
	if handler != nil {
		handler(id, c)
	}
}
