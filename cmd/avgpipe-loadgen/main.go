// Command avgpipe-loadgen drives an avgpipe-serve instance with
// synthetic inference traffic and reports the latency distribution.
//
// Usage:
//
//	avgpipe-serve -task translation -checkpoint-dir ckpt -addr :8080 &
//	avgpipe-loadgen -addr localhost:8080 -rate 2000 -duration 10s
//
// Two modes share the flags:
//
//   - Open loop (-rate > 0): request i is due at start + i/rate,
//     regardless of completions — the offered-load model behind the
//     serve gate's p99 numbers. Latency is timed from each request's due
//     time, so a server slower than the schedule, or a late generator,
//     shows up as queueing latency, exactly as it would for real traffic.
//   - Closed loop (-rate 0): -concurrency workers fire back-to-back
//     requests, measuring saturated throughput.
//
// The generator discovers seq_len and vocab from /v1/info and sends
// uniform random in-vocab sequences.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type info struct {
	Task   string `json:"task"`
	SeqLen int    `json:"seq_len"`
	Vocab  int    `json:"vocab"`
	Round  int    `json:"round"`
}

func main() {
	var (
		addr        = flag.String("addr", "localhost:8080", "avgpipe-serve host:port")
		rate        = flag.Float64("rate", 0, "offered load in requests/second (0 = closed-loop saturation)")
		duration    = flag.Duration("duration", 10*time.Second, "how long to drive load")
		concurrency = flag.Int("concurrency", 64, "max outstanding requests (workers in closed-loop mode)")
		seed        = flag.Int64("seed", 1, "token stream seed")
	)
	flag.Parse()
	if *concurrency < 1 {
		log.Fatalf("-concurrency %d: want at least 1", *concurrency)
	}

	base := "http://" + *addr
	var inf info
	resp, err := http.Get(base + "/v1/info")
	if err != nil {
		log.Fatalf("GET /v1/info: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&inf); err != nil {
		log.Fatalf("decode /v1/info: %v", err)
	}
	resp.Body.Close()
	fmt.Printf("target %s: task %q, seq_len %d, vocab %d, round %d\n",
		*addr, inf.Task, inf.SeqLen, inf.Vocab, inf.Round)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *concurrency}}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		sent      atomic.Int64
		failed    atomic.Int64
	)
	// fire sends one request and times it from start: its due time in
	// the open loop, the moment it is sent in the closed loop.
	fire := func(rng *rand.Rand, start time.Time) {
		tokens := make([]int, inf.SeqLen)
		for i := range tokens {
			tokens[i] = rng.Intn(inf.Vocab)
		}
		body, _ := json.Marshal(map[string][]int{"tokens": tokens})
		resp, err := client.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		lat := time.Since(start)
		sent.Add(1)
		if err != nil || resp.StatusCode != http.StatusOK {
			failed.Add(1)
			if err == nil {
				resp.Body.Close()
			}
			return
		}
		var pr struct {
			Predictions []int `json:"predictions"`
		}
		json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		mu.Lock()
		latencies = append(latencies, lat)
		mu.Unlock()
	}

	begin := time.Now()
	var wg sync.WaitGroup
	if *rate > 0 {
		interval := time.Duration(float64(time.Second) / *rate)
		openLoop(int(*rate*duration.Seconds()), interval, *concurrency, func(i int, due time.Time) {
			fire(rand.New(rand.NewSource(*seed+int64(i))), due)
		})
	} else {
		stop := time.Now().Add(*duration)
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(w)))
				for time.Now().Before(stop) {
					fire(rng, time.Now())
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(begin)

	ok := len(latencies)
	if ok == 0 {
		log.Fatalf("no successful requests (%d sent, %d failed)", sent.Load(), failed.Load())
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q float64) time.Duration { return latencies[int(q*float64(ok-1))] }
	mode := "closed-loop"
	if *rate > 0 {
		mode = fmt.Sprintf("open-loop @ %.0f req/s", *rate)
	}
	fmt.Printf("%s for %v: %d ok, %d failed, %.0f req/s achieved\n",
		mode, elapsed.Round(time.Millisecond), ok, failed.Load(), float64(ok)/elapsed.Seconds())
	fmt.Printf("latency p50=%v p90=%v p99=%v max=%v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), latencies[ok-1].Round(time.Microsecond))
}

// openLoop sends n requests from one pacing goroutine, request i due at
// start + i·interval. A late pacer neither skips a request nor re-times
// it: it sends the overdue ones at once, and fire(i, due) times request
// i from due, so a stall of the pacer or of the server shows in the
// latency. At most limit requests are outstanding; when all are, the
// pacer waits for one to finish, and that wait counts too.
func openLoop(n int, interval time.Duration, limit int, fire func(i int, due time.Time)) {
	slots := make(chan struct{}, limit)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(i, due)
			<-slots
		}()
	}
	wg.Wait()
}
