// Package comm models interconnect links for the pipeline simulator and
// provides the asynchronous message queues the elastic-averaging runtime
// uses to ship local updates to the reference model without blocking the
// training pipelines (§3.2 step ❸).
package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"avgpipe/internal/obs"
)

// Link is a point-to-point interconnect with latency and bandwidth.
type Link struct {
	// Name labels the link in reports, e.g. "pcie" or "ethernet-1gbps".
	Name string
	// Latency is the per-message fixed cost.
	Latency time.Duration
	// BytesPerSec is the sustained bandwidth.
	BytesPerSec float64
}

// Validate reports whether the link parameters describe a physical
// interconnect: positive bandwidth and non-negative latency. Simulation
// entry points validate links up front so a malformed profile fails
// loudly instead of producing +Inf/NaN transfer times.
func (l Link) Validate() error {
	if l.BytesPerSec <= 0 {
		return fmt.Errorf("comm: link %q has non-positive bandwidth %v B/s", l.Name, l.BytesPerSec)
	}
	if l.Latency < 0 {
		return fmt.Errorf("comm: link %q has negative latency %v", l.Name, l.Latency)
	}
	return nil
}

// TransferTime returns how long `bytes` take to move across the link.
// A link that fails Validate degrades to a defined value — latency only
// (an infinitely fast wire) — never an Inf/NaN duration.
func (l Link) TransferTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	lat := l.Latency
	if lat < 0 {
		lat = 0
	}
	if l.BytesPerSec <= 0 {
		return lat
	}
	return lat + time.Duration(float64(bytes)/l.BytesPerSec*float64(time.Second))
}

// PCIe3 returns an intra-node GPU-to-GPU link (PCIe 3.0 x16-class).
func PCIe3() Link {
	return Link{Name: "pcie3", Latency: 5 * time.Microsecond, BytesPerSec: 10e9}
}

// Ethernet1G returns the paper testbed's 1 Gbps inter-node Ethernet. Its
// low bandwidth is what exposes 1F1B's inability to overlap communication
// with computation.
func Ethernet1G() Link {
	return Link{Name: "ethernet-1gbps", Latency: 50 * time.Microsecond, BytesPerSec: 125e6}
}

// ErrClosed is returned by Queue.Send once the queue has been closed.
var ErrClosed = errors.New("comm: send on closed queue")

// Queue is a FIFO used by the runtime to send local updates from
// parallel pipelines to the reference-model process. The default queue
// is unbounded and senders never block (preventing inter-process
// communication from stalling a pipeline); NewBounded builds a
// capacity-limited queue whose senders block while it is full — the
// backpressure primitive the in-process network transport is built on.
// The receiver drains with Recv, RecvContext, or TryRecv.
// Sending after Close is safe under any interleaving: the item is
// rejected with ErrClosed, never dropped silently and never a panic.
//
// Blocked sends and receives follow the transport cancellation contract
// defined in package avgpipe/internal/net: a context firing while
// blocked returns ctx.Err() without consuming (or enqueueing) an item,
// and closed-and-drained wins over cancellation. That contract is
// documented and conformance-tested in exactly one place — internal/net
// — because the TCP transport inherits these semantics from this type.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	closed bool
	// capn bounds the queue length (0 = unbounded). Senders on a full
	// bounded queue block until a receiver makes room.
	capn int

	// Optional instrumentation (nil-safe, see Instrument): queue depth,
	// cumulative receiver blocked time, and op counters.
	depth      *obs.Gauge
	blockedSec *obs.Counter
	sends      *obs.Counter
	rejected   *obs.Counter
}

// NewQueue returns an open, unbounded queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// NewBounded returns an open queue holding at most capacity items;
// senders block while it is full. capacity <= 0 means unbounded.
func NewBounded[T any](capacity int) *Queue[T] {
	q := NewQueue[T]()
	if capacity > 0 {
		q.capn = capacity
	}
	return q
}

// Instrument attaches metrics for this queue to reg. Call before the
// queue is shared between goroutines.
func (q *Queue[T]) Instrument(reg *obs.Registry, name string) {
	q.depth = reg.Gauge("avgpipe_queue_depth",
		"Items currently pending in the queue.", "queue", name)
	q.blockedSec = reg.Counter("avgpipe_queue_recv_blocked_seconds_total",
		"Cumulative time receivers spent blocked waiting for items.", "queue", name)
	q.sends = reg.Counter("avgpipe_queue_sends_total",
		"Items successfully enqueued.", "queue", name)
	q.rejected = reg.Counter("avgpipe_queue_send_after_close_total",
		"Sends rejected with ErrClosed because the queue was closed.", "queue", name)
}

// Send enqueues, blocking only when a bounded queue is full (unbounded
// queues never block). It returns ErrClosed — rather than panicking or
// dropping — if the queue has been closed, so racing senders and
// closers compose safely.
func (q *Queue[T]) Send(v T) error {
	return q.SendContext(context.Background(), v)
}

// SendContext is Send with a way out of backpressure: while a bounded
// queue is full it parks, and returns ctx.Err() without enqueueing if
// the context fires first. Closed wins over cancellation (see the
// transport contract in package avgpipe/internal/net).
func (q *Queue[T]) SendContext(ctx context.Context, v T) error {
	var stop func() bool
	q.mu.Lock()
	for q.capn > 0 && len(q.items) >= q.capn && !q.closed && ctx.Err() == nil {
		if stop == nil {
			// Arm the wakeup lazily: the fast path (queue has room) never
			// touches the context.
			stop = context.AfterFunc(ctx, func() {
				q.mu.Lock()
				defer q.mu.Unlock()
				q.cond.Broadcast()
			})
			defer stop()
		}
		q.cond.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		q.rejected.Inc()
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		q.mu.Unlock()
		return err
	}
	q.items = append(q.items, v)
	q.depth.Set(float64(len(q.items)))
	q.mu.Unlock()
	q.sends.Inc()
	q.cond.Broadcast()
	return nil
}

// Recv blocks until an item is available or the queue is closed. The
// second result is false once the queue is closed and drained.
func (q *Queue[T]) Recv() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 && !q.closed && q.blockedSec != nil {
		start := time.Now()
		defer func() { q.blockedSec.Add(time.Since(start).Seconds()) }()
	}
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.depth.Set(float64(len(q.items)))
	if q.capn > 0 {
		q.cond.Broadcast() // wake senders parked on a full bounded queue
	}
	return v, true
}

// RecvContext blocks like Recv but gives up when ctx is cancelled or
// its deadline passes: it returns (zero, false, ctx.Err()) without
// consuming an item. ok is false with a nil error once the queue is
// closed and drained — the same terminal condition Recv reports.
// These are the transport cancellation semantics specified (once, for
// both the queue and the wire transports) in package avgpipe/internal/net.
func (q *Queue[T]) RecvContext(ctx context.Context) (T, bool, error) {
	// Wake the cond loop when the context fires; the lock around the
	// broadcast pairs with the wait loop so the wakeup cannot be missed.
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		q.cond.Broadcast()
	})
	defer stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 && !q.closed && q.blockedSec != nil {
		start := time.Now()
		defer func() { q.blockedSec.Add(time.Since(start).Seconds()) }()
	}
	for len(q.items) == 0 && !q.closed && ctx.Err() == nil {
		q.cond.Wait()
	}
	var zero T
	if len(q.items) == 0 {
		if q.closed {
			return zero, false, nil
		}
		return zero, false, ctx.Err()
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.depth.Set(float64(len(q.items)))
	if q.capn > 0 {
		q.cond.Broadcast()
	}
	return v, true, nil
}

// TryRecv dequeues without blocking; ok is false if nothing was pending.
func (q *Queue[T]) TryRecv() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.depth.Set(float64(len(q.items)))
	if q.capn > 0 {
		q.cond.Broadcast()
	}
	return v, true
}

// Len returns the number of pending items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close marks the queue closed, waking blocked receivers. Pending items
// remain receivable.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
