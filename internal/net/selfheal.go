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
// ones, on every topology. Outbound: every send connection is wrapped
// in a Reconn that re-dials with exponential backoff + jitter when the
// link breaks and opens the new session with formation's handshake,
// whose Round is the bumped session epoch. Inbound: the formation
// listener keeps accepting after formation; a connection whose
// handshake passes formation's checks (the peer is a topology
// neighbour with the same fingerprint) and carries a newer session
// epoch (or epoch 0 — a fully restarted process starting a fresh
// session) replaces that peer's inbound connection and is announced
// through SetInboundHandler. Any other connection is closed silently.
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
		m.sends[id] = NewReconn(m.sends[id], m.dialer(cfg.Transport, cfg.Peers[id]), ReconnConfig{
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

// admitReconnect checks one freshly accepted connection's handshake
// (admit) and, if it is a new session of a known peer, swaps it in as
// that peer's inbound connection.
func (m *Mesh) admitReconnect(ctx context.Context, cfg SelfHealConfig, c Conn) {
	hctx, cancel := context.WithTimeout(ctx, reconnectHelloTimeout)
	defer cancel()
	id, epoch, err := m.admit(hctx, c)
	if err != nil {
		c.Close()
		return
	}
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
