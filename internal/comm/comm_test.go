package comm

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avgpipe/internal/obs"
)

func TestTransferTime(t *testing.T) {
	l := Link{Latency: time.Millisecond, BytesPerSec: 1e6}
	if got := l.TransferTime(0); got != 0 {
		t.Fatal("zero bytes must be free")
	}
	if got := l.TransferTime(1e6); got != time.Millisecond+time.Second {
		t.Fatalf("1 MB at 1 MB/s + 1ms = %v", got)
	}
}

func TestLinkProfilesOrdering(t *testing.T) {
	small := int64(1 << 20)
	if PCIe3().TransferTime(small) >= Ethernet1G().TransferTime(small) {
		t.Fatal("PCIe must beat 1G Ethernet")
	}
}

// recv is a blocking receive with no way out but Close.
func recv[T any](q *Queue[T]) (T, bool) {
	v, ok, _ := q.RecvContext(context.Background())
	return v, ok
}

func TestQueueFIFO(t *testing.T) {
	q := NewBounded[int](0)
	for i := 0; i < 5; i++ {
		q.Send(i)
	}
	for i := 0; i < 5; i++ {
		v, ok := recv(q)
		if !ok || v != i {
			t.Fatalf("Recv %v %v, want %d", v, ok, i)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, err := q.RecvContext(cancelled); ok || err != context.Canceled {
		t.Fatalf("receive on empty queue = (ok=%v, err=%v), want nothing pending", ok, err)
	}
}

func TestQueueBlockingRecvAndClose(t *testing.T) {
	q := NewBounded[string](0)
	got := make(chan string, 1)
	go func() {
		v, _ := recv(q)
		got <- v
	}()
	time.Sleep(5 * time.Millisecond)
	q.Send("hello")
	select {
	case v := <-got:
		if v != "hello" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv never woke")
	}
	q.Close()
	if _, ok := recv(q); ok {
		t.Fatal("Recv after close+drain must report closed")
	}
}

func TestQueueCloseDrainsPending(t *testing.T) {
	q := NewBounded[int](0)
	q.Send(1)
	q.Close()
	if v, ok := recv(q); !ok || v != 1 {
		t.Fatal("pending items must remain receivable after Close")
	}
	if _, ok := recv(q); ok {
		t.Fatal("queue must then be exhausted")
	}
}

func TestQueueSendAfterClose(t *testing.T) {
	q := NewBounded[int](0)
	if err := q.Send(1); err != nil {
		t.Fatalf("Send on open queue: %v", err)
	}
	q.Close()
	if err := q.Send(2); err != ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	// The rejected item must not have been enqueued.
	if v, ok := recv(q); !ok || v != 1 {
		t.Fatalf("Recv = %v %v, want 1 true", v, ok)
	}
	if _, ok := recv(q); ok {
		t.Fatal("rejected send leaked into the queue")
	}
}

// TestQueueSendCloseRace is the regression test for the send-after-Close
// guard: under the race detector, concurrent senders racing one Close
// must neither panic nor silently drop — every Send either enqueues (and
// is received) or returns ErrClosed.
func TestQueueSendCloseRace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		q := NewBounded[int](0)
		const senders = 8
		var accepted, rejected int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for j := 0; j < 50; j++ {
					switch err := q.Send(i*100 + j); err {
					case nil:
						atomic.AddInt64(&accepted, 1)
					case ErrClosed:
						atomic.AddInt64(&rejected, 1)
					default:
						t.Errorf("Send returned unexpected error %v", err)
					}
				}
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			runtime.Gosched()
			q.Close()
		}()
		close(start)
		wg.Wait()
		var received int64
		for {
			if _, ok := recv(q); !ok {
				break
			}
			received++
		}
		if received != accepted {
			t.Fatalf("trial %d: accepted %d sends but received %d", trial, accepted, received)
		}
		if accepted+rejected != senders*50 {
			t.Fatalf("trial %d: %d accepted + %d rejected != %d sends", trial, accepted, rejected, senders*50)
		}
	}
}

func TestInstrumentedQueueMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	q := NewBounded[int](0)
	q.Instrument(reg, "test")
	q.Send(1)
	q.Send(2)
	if d := reg.Gauge("avgpipe_queue_depth", "", "queue", "test").Value(); d != 2 {
		t.Fatalf("depth gauge %v, want 2", d)
	}
	recv(q)
	if d := reg.Gauge("avgpipe_queue_depth", "", "queue", "test").Value(); d != 1 {
		t.Fatalf("depth gauge %v after Recv, want 1", d)
	}
	// A blocked Recv must accrue blocked time.
	done := make(chan struct{})
	go func() {
		recv(q) // drains the remaining item immediately
		recv(q) // blocks until the late send
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Send(3)
	<-done
	if b := reg.Counter("avgpipe_queue_recv_blocked_seconds_total", "", "queue", "test").Value(); b <= 0 {
		t.Fatalf("blocked seconds %v, want > 0", b)
	}
	if s := reg.Counter("avgpipe_queue_sends_total", "", "queue", "test").Value(); s != 3 {
		t.Fatalf("sends %v, want 3", s)
	}
	q.Close()
	q.Send(4)
	if r := reg.Counter("avgpipe_queue_send_after_close_total", "", "queue", "test").Value(); r != 1 {
		t.Fatalf("rejected %v, want 1", r)
	}
}

func TestQueueConcurrentSenders(t *testing.T) {
	q := NewBounded[int](0)
	const n = 100
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q.Send(i)
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		v, ok := recv(q)
		if !ok {
			t.Fatal("missing item")
		}
		if seen[v] {
			t.Fatal("duplicate item")
		}
		seen[v] = true
	}
}
