package net

import (
	"context"
	"time"

	"avgpipe/internal/fault"
)

// faultConn injects message faults at the transport seam: every update
// frame, exact or compressed, consults the injector's deterministic
// schedule and is delivered, delayed, or dropped accordingly. Control
// frames (hello, detach, rejoin) always pass through — the fault model
// loses data messages, not membership changes.
type faultConn struct {
	Conn
	in *fault.Injector
	// onLost runs when a delayed frame is finally lost to a closed
	// connection, so the caller can undo any delivery accounting (the
	// averager's drain watermark).
	onLost func()
}

// Faulty wraps c so its Sends pass through the fault injector: a
// dropped update returns ErrDropped (the frame will never arrive), a
// delayed update returns nil immediately and is delivered after the
// hold time, with onLost called if the connection has closed by then.
// A nil injector returns c unchanged.
func Faulty(c Conn, in *fault.Injector, onLost func()) Conn {
	if in == nil {
		return c
	}
	if onLost == nil {
		onLost = func() {}
	}
	return &faultConn{Conn: c, in: in, onLost: onLost}
}

func (c *faultConn) Send(ctx context.Context, f *Frame) error {
	if _, update := UpdateCodec(f.Type); !update {
		return c.Conn.Send(ctx, f)
	}
	switch fate, d := c.in.UpdateFate(int(f.Replica), int(f.Round)); fate {
	case fault.FateDrop:
		return ErrDropped
	case fault.FateDelay:
		time.AfterFunc(d, func() {
			if c.Conn.Send(context.Background(), f) != nil {
				c.onLost()
			}
		})
		return nil
	default:
		return c.Conn.Send(ctx, f)
	}
}
