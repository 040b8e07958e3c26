package net

import (
	"context"
	"errors"
	"testing"

	"avgpipe/internal/fault"
	"avgpipe/internal/obs"
)

// TestFaultyInjectsEveryUpdateType: with every update dropped, each of
// the four update frame types, exact or compressed, is lost in flight,
// and a control frame still passes through.
func TestFaultyInjectsEveryUpdateType(t *testing.T) {
	in, err := fault.New(fault.Config{Seed: 1, MsgDropProb: 1}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		typ  FrameType
		want error
	}{
		{FrameUpdate, ErrDropped},
		{FrameUpdateQ8, ErrDropped},
		{FrameUpdateQ16, ErrDropped},
		{FrameUpdateTopK, ErrDropped},
		{FrameDetach, nil},
	} {
		tx, rx := Pipe(0)
		if err := Faulty(tx, in, nil).Send(ctx, &Frame{Type: c.typ, Replica: 1, Round: 2}); !errors.Is(err, c.want) {
			t.Fatalf("frame type %d: Send = %v, want %v", c.typ, err, c.want)
		}
		tx.Close()
		f, err := rx.Recv(ctx)
		if delivered := err == nil; delivered != (c.want == nil) {
			t.Fatalf("frame type %d: received (%v, %v) after a Send that returned %v", c.typ, f, err, c.want)
		}
	}
}
