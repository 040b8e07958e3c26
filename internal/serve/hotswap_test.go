package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avgpipe/internal/workload"
)

// TestHotSwapNoTornReads is the acceptance test for swap correctness:
// under sustained concurrent load, model versions are swapped
// repeatedly, and every single response must (a) arrive — zero lost
// requests — and (b) be answered entirely by ONE version: its logits
// bit-match the full output of exactly the version its Round field
// names. A torn read (front of the response from version A, tail from
// version B) would match neither.
func TestHotSwapNoTornReads(t *testing.T) {
	task := workload.TranslationTask()
	s := newTestServer(t, Config{Task: task, MaxBatch: 4, Workers: 2})

	// Distinct versions with distinct weights; round = model seed + 1 so
	// round uniquely names the weights.
	const versions = 4
	seqs := testTokens(t, s, 2)[:4]
	// want[v][q] is version v's full interpreter-eval logits for seqs[q].
	want := make([][][]float32, versions)
	for v := 0; v < versions; v++ {
		m := task.NewModel(int64(100 + v))
		want[v] = make([][]float32, len(seqs))
		for q, toks := range seqs {
			want[v][q] = refLogits(evalForward(m, singleX(toks)))
		}
		if v == 0 {
			if err := s.InstallSnapshot(snapFrame(m.Params(), 1)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var (
		stop     atomic.Bool
		answered atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}

	var wg sync.WaitGroup
	const clients = 8
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := (c + i) % len(seqs)
				res, err := s.Predict(context.Background(), seqs[q])
				if err != nil {
					fail(fmt.Errorf("client %d: %v", c, err))
					return
				}
				answered.Add(1)
				if res.Round < 1 || res.Round > 40 {
					fail(fmt.Errorf("client %d: impossible round %d", c, res.Round))
					return
				}
				// Round r serves the model seeded 100+(r-1)%versions (see
				// the swap loop below).
				v := (res.Round - 1) % versions
				got := flatLogits(res)
				if !bitEqualSlices(got, want[v][q]) {
					// Diagnose: does it match ANY whole version? If yes the
					// Round label lied; if no, the response is torn.
					torn := true
					for o := 0; o < versions; o++ {
						if bitEqualSlices(got, want[o][q]) {
							fail(fmt.Errorf("client %d: response labeled round %d but carries version %d's output", c, res.Round, o))
							torn = false
							break
						}
					}
					if torn {
						fail(fmt.Errorf("client %d: TORN response — matches no single model version", c))
					}
					return
				}
			}
		}(c)
	}

	// Swap continuously while the clients hammer: cycle upward through
	// rounds (installs require monotone rounds).
	swaps := 0
	for round := 2; round <= 40 && !stop.Load(); round++ {
		m := task.NewModel(int64(100 + (round-1)%versions))
		if err := s.InstallSnapshot(snapFrame(m.Params(), round)); err != nil {
			fail(err)
			break
		}
		swaps++
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if answered.Load() == 0 || swaps < 10 {
		t.Fatalf("weak test: %d answers across %d swaps", answered.Load(), swaps)
	}
	t.Logf("%d requests answered across %d hot-swaps, zero lost, zero torn", answered.Load(), swaps)
}

// TestHotSwapRoundsMonotone pins that a batch in flight during an
// install keeps its version: rounds observed by one serial client never
// go backwards across swaps.
func TestHotSwapRoundsMonotone(t *testing.T) {
	task := workload.TranslationTask()
	s := newTestServer(t, Config{Task: task, MaxBatch: 2, Workers: 1})
	m := task.NewModel(1)
	if err := s.InstallSnapshot(snapFrame(m.Params(), 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 2; round <= 20; round++ {
			s.InstallSnapshot(snapFrame(m.Params(), round))
			time.Sleep(200 * time.Microsecond)
		}
	}()
	last := 0
	toks := make([]int, s.SeqLen())
	for {
		select {
		case <-done:
			if last < 2 {
				t.Skip("swaps finished before any served round advanced")
			}
			return
		default:
		}
		res, err := s.Predict(context.Background(), toks)
		if err != nil {
			t.Fatal(err)
		}
		if res.Round < last {
			t.Fatalf("served round went backwards: %d after %d", res.Round, last)
		}
		last = res.Round
	}
}
