package comm

import (
	"context"
	"testing"
	"time"
)

func TestLinkValidate(t *testing.T) {
	if err := PCIe3().Validate(); err != nil {
		t.Fatalf("stock profile invalid: %v", err)
	}
	bad := []Link{
		{Name: "no-bandwidth"},
		{Name: "negative-bandwidth", BytesPerSec: -1},
		{Name: "negative-latency", BytesPerSec: 1e9, Latency: -time.Millisecond},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("link %q passed Validate", l.Name)
		}
	}
}

func TestTransferTimeDegradedLinks(t *testing.T) {
	// A malformed link degrades to a defined duration, never Inf/NaN.
	zero := Link{Name: "zero-bw", Latency: time.Millisecond}
	if got := zero.TransferTime(1 << 20); got != time.Millisecond {
		t.Fatalf("zero-bandwidth link = %v, want latency only", got)
	}
	neg := Link{Name: "neg", Latency: -time.Second, BytesPerSec: -5}
	if got := neg.TransferTime(1 << 20); got != 0 {
		t.Fatalf("fully negative link = %v, want 0", got)
	}
	ok := Link{Latency: time.Millisecond, BytesPerSec: 1e6}
	if got := ok.TransferTime(-4); got != 0 {
		t.Fatalf("negative byte count = %v, want 0", got)
	}
}

func TestRecvContextDeliversAndDrains(t *testing.T) {
	q := NewBounded[int](0)
	q.Send(7)
	v, ok, err := q.RecvContext(context.Background())
	if v != 7 || !ok || err != nil {
		t.Fatalf("RecvContext = (%v, %v, %v), want (7, true, nil)", v, ok, err)
	}
	q.Send(8)
	q.Close()
	if v, ok, err := q.RecvContext(context.Background()); v != 8 || !ok || err != nil {
		t.Fatalf("closed queue must still drain: (%v, %v, %v)", v, ok, err)
	}
	if _, ok, err := q.RecvContext(context.Background()); ok || err != nil {
		t.Fatalf("drained closed queue = (ok=%v, err=%v), want (false, nil)", ok, err)
	}
}

func TestRecvContextCancelWhileBlocked(t *testing.T) {
	q := NewBounded[int](0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, ok, err := q.RecvContext(ctx)
		if ok {
			done <- nil
			return
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver park on the cond
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled RecvContext returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not wake the blocked receiver")
	}
	// The queue still works after a cancelled receive.
	q.Send(1)
	if v, ok, err := q.RecvContext(context.Background()); v != 1 || !ok || err != nil {
		t.Fatalf("queue broken after cancelled receive: (%v, %v, %v)", v, ok, err)
	}
}

func TestRecvContextDeadline(t *testing.T) {
	q := NewBounded[int](0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, ok, err := q.RecvContext(ctx)
	if ok || err != context.DeadlineExceeded {
		t.Fatalf("deadline RecvContext = (ok=%v, err=%v)", ok, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline receive overslept")
	}
}
