package collect

import (
	"fmt"
	"sync"
	"testing"

	netx "avgpipe/internal/net"
)

// TestIngestReadyAfterConcurrentSnapshots ingests the first snapshot of
// each of Expect replicas from Expect goroutines at once, many times
// over: once all have landed the collector must be ready — a racing
// ingest's stale "k/Expect replicas reporting" may not overwrite the
// ready state the last ingest set.
func TestIngestReadyAfterConcurrentSnapshots(t *testing.T) {
	const expect, reps = 4, 500
	for rep := 0; rep < reps; rep++ {
		c, err := NewCollector(CollectorConfig{Transport: netx.NewInProc(0), Expect: expect})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < expect; p++ {
			wg.Add(1)
			go func(blob []byte) {
				defer wg.Done()
				<-start
				c.ingestSnapshot(blob)
			}([]byte(fmt.Sprintf(`{"replica":%d}`, p)))
		}
		close(start)
		wg.Wait()
		ready, reason := c.Health().Ready()
		c.Close()
		if !ready {
			t.Fatalf("repetition %d: not ready after all %d replicas reported: %s", rep, expect, reason)
		}
	}
}
