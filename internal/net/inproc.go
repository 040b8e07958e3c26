package net

import (
	"context"
	"fmt"
	"sync"

	"avgpipe/internal/comm"
	"avgpipe/internal/obs"
)

// InProc is the in-process Transport: the elastic-averaging message
// queues (comm.Queue) refactored behind the Transport interface.
// Frames move by pointer — no serialization — so a single-process run
// pays nothing for the transport seam. Addresses are arbitrary strings
// scoped to one InProc instance.
type InProc struct {
	// Capacity bounds each direction of every connection (frames
	// buffered before Send blocks). 0 means unbounded: senders never
	// block, the historical queue behavior the averager relies on.
	Capacity int

	mu        sync.Mutex
	listeners map[string]*inprocListener
	autoAddr  int
}

// NewInProc returns an in-process transport whose connections buffer at
// most capacity frames per direction (0 = unbounded).
func NewInProc(capacity int) *InProc {
	return &InProc{Capacity: capacity, listeners: make(map[string]*inprocListener)}
}

func (t *InProc) Name() string { return "inproc" }

// Listen binds addr ("" picks a fresh unique address).
func (t *InProc) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" {
		t.autoAddr++
		addr = fmt.Sprintf("inproc-%d", t.autoAddr)
	}
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("net: inproc address %q already bound", addr)
	}
	ln := &inprocListener{tr: t, addr: addr, backlog: comm.NewBounded[Conn](0)}
	t.listeners[addr] = ln
	return ln, nil
}

// Dial connects to a listener previously bound on addr.
func (t *InProc) Dial(ctx context.Context, addr string) (Conn, error) {
	t.mu.Lock()
	ln := t.listeners[addr]
	t.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("net: inproc dial %q: no listener", addr)
	}
	client, server := Pipe(t.Capacity)
	c, s := client.(*pipeConn), server.(*pipeConn)
	c.local, c.remote = "inproc-dialer", addr
	s.local, s.remote = addr, "inproc-dialer"
	if err := ln.backlog.SendContext(ctx, server); err != nil {
		if err == comm.ErrClosed {
			return nil, ErrClosed
		}
		return nil, err
	}
	return client, nil
}

type inprocListener struct {
	tr      *InProc
	addr    string
	backlog *comm.Queue[Conn]
}

func (ln *inprocListener) Accept(ctx context.Context) (Conn, error) {
	c, ok, err := ln.backlog.RecvContext(ctx)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

func (ln *inprocListener) Addr() string { return ln.addr }

func (ln *inprocListener) Close() error {
	ln.tr.mu.Lock()
	if ln.tr.listeners[ln.addr] == ln {
		delete(ln.tr.listeners, ln.addr)
	}
	ln.tr.mu.Unlock()
	ln.backlog.Close()
	return nil
}

// Pipe returns the two ends of an in-process connection with no
// listener handshake: what one end Sends the other Recvs. capacity
// bounds each direction (0 = unbounded). The averager's local loopback
// — the refactored §3.2 update queue — is one of these.
func Pipe(capacity int) (Conn, Conn) {
	ab := comm.NewBounded[*Frame](capacity)
	ba := comm.NewBounded[*Frame](capacity)
	a := &pipeConn{send: ab, recv: ba, local: "pipe-a", remote: "pipe-b"}
	b := &pipeConn{send: ba, recv: ab, local: "pipe-b", remote: "pipe-a"}
	return a, b
}

// InstrumentedPipe is Pipe with the forward direction's queue (first
// end sends, second end receives) registered in reg under the given
// name — the direction the averager's update stream flows.
func InstrumentedPipe(capacity int, reg *obs.Registry, name string) (Conn, Conn) {
	a, b := Pipe(capacity)
	a.(*pipeConn).send.Instrument(reg, name)
	return a, b
}

// pipeConn is one end of an in-process connection: a bounded send queue
// towards the peer and the peer's queue to receive from. Its blocked-
// call semantics are exactly comm.Queue's — which is the point: the
// transport contract is defined once and inherited here verbatim.
type pipeConn struct {
	send, recv    *comm.Queue[*Frame]
	local, remote string
}

func (c *pipeConn) Send(ctx context.Context, f *Frame) error {
	if err := c.send.SendContext(ctx, f); err != nil {
		if err == comm.ErrClosed {
			return ErrClosed
		}
		return err
	}
	return nil
}

func (c *pipeConn) Recv(ctx context.Context) (*Frame, error) {
	f, ok, err := c.recv.RecvContext(ctx)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrClosed
	}
	return f, nil
}

// Close closes both directions: the peer drains frames already sent and
// then sees ErrClosed; local Sends and the peer's Sends fail with
// ErrClosed immediately.
func (c *pipeConn) Close() error {
	c.send.Close()
	c.recv.Close()
	return nil
}

func (c *pipeConn) LocalAddr() string  { return c.local }
func (c *pipeConn) RemoteAddr() string { return c.remote }
