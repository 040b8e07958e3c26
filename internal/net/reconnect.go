package net

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"avgpipe/internal/obs"
)

// DialFunc establishes one fresh connection for a reconnect session:
// dial the peer and run whatever handshake the session needs (the mesh
// dial sends formation's handshake carrying the new epoch, so the
// acceptor re-runs formation's checks). epoch is the session the
// connection will serve.
type DialFunc func(ctx context.Context, epoch uint32) (Conn, error)

// ReconnConfig tunes one self-healing connection.
type ReconnConfig struct {
	// Peer is the remote replica id, for event attribution.
	Peer int
	// MaxAttempts bounds the redials of one outage; 0 retries until the
	// Reconn is closed. When the budget is exhausted the connection goes
	// permanently dead: Sends report the frames dropped, Recv reports
	// ErrClosed.
	MaxAttempts int
	// Backoff builds the redial pacing for each outage (nil = transport
	// defaults: exponential from 1ms to 500ms with 20% jitter).
	Backoff func() *Backoff
	// Events receives conn-broken / reconnect-attempt / reconnect-success
	// health events (nil = no events).
	Events *obs.EventLog
}

// Reconn is a self-healing Conn: when the underlying connection breaks
// — a poisoned TCP stream, a peer reset, a closed pipe — it re-dials in
// the background with exponential backoff + jitter and swaps in the new
// connection under a bumped session epoch, so a transient network fault
// no longer permanently poisons the peer link.
//
// Send semantics during an outage are elastic-averaging semantics:
// frames are reported dropped (ErrDropped), never queued, because a
// stale averaging update is worthless by the time a long outage heals —
// the round deadline closes rounds over the updates that did arrive.
// The frame whose Send detected the break is likewise dropped, as are
// any frames the dead connection had buffered (in-flight frame loss is
// part of the contract; see the reconnect conformance cases). Recv
// blocks across outages and resumes on the replacement connection.
type Reconn struct {
	dial DialFunc
	cfg  ReconnConfig

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	conn   Conn
	epoch  uint32
	up     bool
	dead   bool // redial budget exhausted: permanently down
	closed bool
	wake   chan struct{} // closed-and-replaced on every state change
}

// NewReconn wraps an established connection (session epoch 0) into a
// self-healing one. Closing the Reconn closes the current connection
// and stops any in-flight reconnect.
func NewReconn(initial Conn, dial DialFunc, cfg ReconnConfig) *Reconn {
	ctx, cancel := context.WithCancel(context.Background())
	return &Reconn{
		dial: dial, cfg: cfg, ctx: ctx, cancel: cancel,
		conn: initial, up: true, wake: make(chan struct{}),
	}
}

// wakeLocked signals every state-change waiter. Caller holds r.mu.
func (r *Reconn) wakeLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// Epoch reports the current session epoch: 0 for the initial
// connection, bumped once per successful reconnect.
func (r *Reconn) Epoch() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Up reports whether the connection is currently healthy (not in an
// outage, not dead, not closed).
func (r *Reconn) Up() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.up && !r.closed
}

// Dead reports whether the redial budget was exhausted and the
// connection permanently abandoned.
func (r *Reconn) Dead() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dead
}

func (r *Reconn) Send(ctx context.Context, f *Frame) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if !r.up {
		// Outage (or permanently dead): the frame is lost in flight, not
		// an error to retry — the round deadline absorbs it.
		r.mu.Unlock()
		return ErrDropped
	}
	c, ep := r.conn, r.epoch
	r.mu.Unlock()
	err := c.Send(ctx, f)
	if err == nil || errors.Is(err, ErrDropped) || ctx.Err() != nil {
		return err
	}
	r.broken(ep, err)
	return ErrDropped
}

func (r *Reconn) Recv(ctx context.Context) (*Frame, error) {
	for {
		r.mu.Lock()
		if r.closed || r.dead {
			r.mu.Unlock()
			return nil, ErrClosed
		}
		if !r.up {
			wake := r.wake
			r.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-wake:
			}
			continue
		}
		c, ep := r.conn, r.epoch
		r.mu.Unlock()
		f, err := c.Recv(ctx)
		if err == nil {
			return f, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		r.broken(ep, err)
		// Loop: park until the background redial swaps in a replacement.
	}
}

// broken transitions session ep into an outage and starts the single
// background redial for it. A second detection of the same break (a
// concurrent Send and Recv both erroring) is a no-op.
func (r *Reconn) broken(ep uint32, cause error) {
	r.mu.Lock()
	if r.closed || r.dead || !r.up || r.epoch != ep {
		r.mu.Unlock()
		return
	}
	r.up = false
	c := r.conn
	r.wakeLocked()
	r.mu.Unlock()
	c.Close() // unblock anything still parked on the dead connection
	r.cfg.Events.Emit(obs.Event{Type: obs.EventConnBroken, Replica: r.cfg.Peer, Round: -1,
		Value: float64(ep), Detail: cause.Error()})
	go r.reconnectLoop(ep + 1)
}

// reconnectLoop redials until the peer answers, the budget runs out, or
// the Reconn closes, then installs the replacement connection under the
// new epoch.
func (r *Reconn) reconnectLoop(epoch uint32) {
	backoff := r.newBackoff()
	for attempt := 1; ; attempt++ {
		if r.cfg.MaxAttempts > 0 && attempt > r.cfg.MaxAttempts {
			r.mu.Lock()
			if !r.closed {
				r.dead = true
				r.wakeLocked()
			}
			r.mu.Unlock()
			r.cfg.Events.Emit(obs.Event{Type: obs.EventReplicaDisconnect, Replica: r.cfg.Peer,
				Round: -1, Value: float64(r.cfg.MaxAttempts),
				Detail: fmt.Sprintf("gave up after %d reconnect attempts", r.cfg.MaxAttempts)})
			return
		}
		if err := backoff.Sleep(r.ctx); err != nil {
			return // Reconn closed while pacing
		}
		r.cfg.Events.Emit(obs.Event{Type: obs.EventReconnectAttempt, Replica: r.cfg.Peer,
			Round: -1, Value: float64(attempt)})
		c, err := r.dial(r.ctx, epoch)
		if err != nil {
			if r.ctx.Err() != nil {
				return
			}
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			c.Close()
			return
		}
		r.conn, r.epoch, r.up = c, epoch, true
		r.wakeLocked()
		r.mu.Unlock()
		r.cfg.Events.Emit(obs.Event{Type: obs.EventReconnectSuccess, Replica: r.cfg.Peer,
			Round: -1, Value: float64(epoch),
			Detail: fmt.Sprintf("session epoch %d after %d attempts", epoch, attempt)})
		return
	}
}

func (r *Reconn) newBackoff() *Backoff {
	if r.cfg.Backoff != nil {
		return r.cfg.Backoff()
	}
	return &Backoff{}
}

// Close tears the self-healing connection down for good: the current
// connection closes, any background redial stops, and every blocked
// call unblocks.
func (r *Reconn) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	var c Conn
	if r.up { // during an outage the dead conn was already closed by broken
		c = r.conn
	}
	r.wakeLocked()
	r.mu.Unlock()
	r.cancel()
	if c != nil {
		return c.Close()
	}
	return nil
}

func (r *Reconn) LocalAddr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == nil {
		return ""
	}
	return r.conn.LocalAddr()
}

func (r *Reconn) RemoteAddr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == nil {
		return ""
	}
	return r.conn.RemoteAddr()
}
