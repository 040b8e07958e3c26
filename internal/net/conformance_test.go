package net

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
)

// The conformance suite runs one table of behavioral cases against both
// Transport implementations through the same harness, so the contract
// documented in this package's doc comment is enforced in exactly one
// place. comm.Queue inherits the same guarantees by construction: both
// transports implement their blocked calls on it.

// connPair is one established connection: frames sent on a arrive at b
// and vice versa. capacity is the per-direction buffering the maker was
// asked for (frames buffered before Send pushes back).
type connPair struct {
	a, b Conn
}

type pairMaker func(t *testing.T, capacity int) connPair

func makeInProcPair(t *testing.T, capacity int) connPair {
	t.Helper()
	tr := NewInProc(capacity)
	ln, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var pair connPair
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept(context.Background())
		pair.b = c
		done <- err
	}()
	a, err := tr.Dial(context.Background(), "srv")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	pair.a = a
	t.Cleanup(func() { pair.a.Close(); pair.b.Close() })
	return pair
}

func makeTCPPair(t *testing.T, capacity int) connPair {
	t.Helper()
	tr := NewTCP(obs.NewRegistry())
	if capacity > 0 {
		tr.InboxFrames = capacity
	}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var pair connPair
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept(context.Background())
		pair.b = c
		done <- err
	}()
	a, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	pair.a = a
	t.Cleanup(func() { pair.a.Close(); pair.b.Close() })
	return pair
}

var transports = []struct {
	name string
	mk   pairMaker
}{
	{"inproc", makeInProcPair},
	{"tcp", makeTCPPair},
}

func testFrame(round int) *Frame {
	return &Frame{Type: FrameUpdate, Replica: 1, Round: uint32(round)}
}

func TestConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, mk pairMaker)
	}{
		{"Ordering", confOrdering},
		{"CloseDrainsThenErrClosed", confCloseSemantics},
		{"SendAfterCloseErrClosed", confSendAfterClose},
		{"CancelWhileBlockedRecv", confCancelRecv},
		{"CancelBeforeRecvDoesNotConsume", confCancelDoesNotConsume},
		{"Backpressure", confBackpressure},
		{"ConcurrentSenders", confConcurrentSenders},
		{"BlobRoundTrip", confBlobRoundTrip},
	}
	for _, tr := range transports {
		for _, tc := range cases {
			t.Run(tr.name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				tc.run(t, tr.mk)
			})
		}
	}
}

// confOrdering: frames arrive exactly once, in send order.
func confOrdering(t *testing.T, mk pairMaker) {
	pair := mk(t, 0)
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			if err := pair.a.Send(context.Background(), testFrame(i)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		f, err := pair.b.Recv(context.Background())
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if int(f.Round) != i {
			t.Fatalf("out of order: want round %d, got %d", i, f.Round)
		}
	}
}

// confCloseSemantics: frames sent before Close are drained by the peer,
// then Recv reports ErrClosed — closed-and-drained wins over blocking.
func confCloseSemantics(t *testing.T, mk pairMaker) {
	pair := mk(t, 0)
	const n = 3
	for i := 0; i < n; i++ {
		if err := pair.a.Send(context.Background(), testFrame(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	pair.a.Close()
	for i := 0; i < n; i++ {
		f, err := pair.b.Recv(context.Background())
		if err != nil {
			t.Fatalf("recv %d after close: %v", i, err)
		}
		if int(f.Round) != i {
			t.Fatalf("drain out of order: want %d, got %d", i, f.Round)
		}
	}
	if _, err := pair.b.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drain: want ErrClosed, got %v", err)
	}
}

// confSendAfterClose: Send on a closed connection returns ErrClosed —
// never a panic, never a hang.
func confSendAfterClose(t *testing.T, mk pairMaker) {
	pair := mk(t, 0)
	pair.a.Close()
	// The TCP transport observes local closes immediately; give it no
	// grace — the contract is immediate ErrClosed on the closed end.
	if err := pair.a.Send(context.Background(), testFrame(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: want ErrClosed, got %v", err)
	}
}

// confCancelRecv: a Recv blocked on an empty connection returns
// ctx.Err() when the context fires.
func confCancelRecv(t *testing.T, mk pairMaker) {
	pair := mk(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := pair.b.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled recv: want DeadlineExceeded, got %v", err)
	}
}

// confCancelDoesNotConsume: a cancelled Recv consumes nothing — the
// next Recv still yields every frame in order.
func confCancelDoesNotConsume(t *testing.T, mk pairMaker) {
	pair := mk(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pair.b.Recv(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled recv: want Canceled, got %v", err)
	}
	if err := pair.a.Send(context.Background(), testFrame(7)); err != nil {
		t.Fatal(err)
	}
	f, err := pair.b.Recv(context.Background())
	if err != nil || f.Round != 7 {
		t.Fatalf("after cancelled recv: want round 7, got (%v, %v)", f, err)
	}
}

// confBackpressure: with a receiver that stops draining, Send
// eventually blocks — and a blocked Send honors its context. For the
// in-process transport the bound is the queue capacity; for TCP it is
// the inbox plus the kernel socket buffers, which large frames fill —
// so the payload is non-zero: an all-+0 update encodes to a few bytes.
func confBackpressure(t *testing.T, mk pairMaker) {
	pair := mk(t, 1)
	big := &Frame{Type: FrameUpdate, Tensors: []*tensor.Tensor{tensor.Ones(256 << 10)}}
	blocked := false
	for i := 0; i < 256; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := pair.a.Send(ctx, big)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			blocked = true
			break
		}
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if !blocked {
		t.Fatal("sender never blocked: no backpressure")
	}
}

// confBlobRoundTrip: telemetry-plane blob frames cross the transport
// byte-identical, interleaved with tensor frames on the same connection.
func confBlobRoundTrip(t *testing.T, mk pairMaker) {
	pair := mk(t, 0)
	frames := []*Frame{
		{Type: FrameClockPing, Replica: 1, Blob: []byte{8, 7, 6, 5, 4, 3, 2, 1}},
		{Type: FrameUpdate, Replica: 1, Round: 3, Tensors: []*tensor.Tensor{
			tensor.FromSlice([]float32{1, 2}, 2),
		}},
		{Type: FrameTelemetry, Replica: 2, Blob: []byte(`{"replica":2}`)},
		{Type: FrameEvent, Replica: 2, Blob: []byte(`[]`)},
		{Type: FrameTrace, Replica: 2},
	}
	go func() {
		for i, f := range frames {
			if err := pair.a.Send(context.Background(), f); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i, want := range frames {
		got, err := pair.b.Recv(context.Background())
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got.Type != want.Type || got.Replica != want.Replica {
			t.Fatalf("frame %d: want %v/%d, got %v/%d", i, want.Type, want.Replica, got.Type, got.Replica)
		}
		if string(got.Blob) != string(want.Blob) {
			t.Fatalf("frame %d blob: want %q, got %q", i, want.Blob, got.Blob)
		}
	}
}

// confConcurrentSenders: frames from concurrent senders on one
// connection all arrive intact (no torn frames, none lost).
func confConcurrentSenders(t *testing.T, mk pairMaker) {
	pair := mk(t, 0)
	const senders, per = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f := &Frame{Type: FrameUpdate, Replica: uint32(s), Round: uint32(i)}
				if err := pair.a.Send(context.Background(), f); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	go func() { wg.Wait(); pair.a.Close() }()
	seen := map[string]bool{}
	for {
		f, err := pair.b.Recv(context.Background())
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%d/%d", f.Replica, f.Round)
		if seen[key] {
			t.Fatalf("frame %s delivered twice", key)
		}
		seen[key] = true
	}
	if len(seen) != senders*per {
		t.Fatalf("got %d of %d frames", len(seen), senders*per)
	}
}
