package net

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestClockFrameRoundTrip checks the ping/pong blob payloads survive
// encode/parse with their timestamps intact.
func TestClockFrameRoundTrip(t *testing.T) {
	ping := ClockPingFrame(3, 1111)
	t1, err := ParseClockPing(ping)
	if err != nil || t1 != 1111 {
		t.Fatalf("ping round trip: got (%d, %v)", t1, err)
	}
	pong := ClockPongFrame(4, 1111, 2222, 3333)
	p1, p2, p3, err := ParseClockPong(pong)
	if err != nil || p1 != 1111 || p2 != 2222 || p3 != 3333 {
		t.Fatalf("pong round trip: got (%d, %d, %d, %v)", p1, p2, p3, err)
	}
	if _, err := ParseClockPing(&Frame{Type: FrameClockPing, Blob: []byte{1, 2}}); err == nil {
		t.Error("short ping parsed")
	}
	if _, _, _, err := ParseClockPong(&Frame{Type: FrameClockPong}); err == nil {
		t.Error("empty pong parsed")
	}
}

// TestMeasureClockOffset runs a pinger and a responder over an
// in-process pipe: with both ends on one clock the measured offset must
// be bounded by the round-trip time.
func TestMeasureClockOffset(t *testing.T) {
	a, b := Pipe(4)
	defer a.Close()
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		ping, err := b.Recv(ctx)
		if err != nil {
			done <- err
			return
		}
		done <- AnswerClockPing(ctx, b, 1, ping)
	}()
	offset, rtt, err := MeasureClockOffset(ctx, a, 0)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("answer: %v", err)
	}
	if rtt <= 0 {
		t.Fatalf("non-positive rtt %v", rtt)
	}
	// Same process, same clock: the true offset is 0 and the estimator's
	// error bound is rtt/2.
	if offset < -rtt/2-time.Millisecond || offset > rtt/2+time.Millisecond {
		t.Fatalf("offset %v exceeds rtt/2 bound (rtt %v)", offset, rtt)
	}
}

// TestMeshSyncClocks forms a 3-replica loopback mesh and has every
// replica measure every peer concurrently — the distributed handshake
// the trainer runs right after formation.
func TestMeshSyncClocks(t *testing.T) {
	const n = 3
	_, meshes := FormTestJob(t, true, FullMesh{}, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = meshes[i].SyncClocks(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replica %d sync: %v", i, err)
		}
	}
	for i, m := range meshes {
		offs := m.ClockOffsets()
		if len(offs) != n-1 {
			t.Fatalf("replica %d: %d offsets, want %d", i, len(offs), n-1)
		}
		for peer, off := range offs {
			// One process, one clock: loopback offsets are sub-second by
			// an enormous margin unless the midpoint math is wrong.
			if off < -time.Second || off > time.Second {
				t.Fatalf("replica %d → %d offset %v is not plausible for one host", i, peer, off)
			}
			if _, ok := m.ClockOffset(peer); !ok {
				t.Fatalf("replica %d: no offset recorded for peer %d", i, peer)
			}
		}
	}
}
