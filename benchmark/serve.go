package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// serveInputs is what the seed generates for the serving workload: the
// token sequences and their ready-made JSON request bodies. Only these
// reach the server.
type serveInputs struct {
	tokens [][]int
	bodies [][]byte
}

func genServeInputs(seed int64, n, seqLen, vocab int) serveInputs {
	g := newRNG(seed)
	in := serveInputs{tokens: make([][]int, n), bodies: make([][]byte, n)}
	for i := range in.tokens {
		toks := make([]int, seqLen)
		for j := range toks {
			toks[j] = g.Intn(vocab)
		}
		in.tokens[i] = toks
		in.bodies[i], _ = json.Marshal(map[string][]int{"tokens": toks}) // ints cannot fail to marshal
	}
	return in
}

// serveSUT is one set-up server with its installed model.
type serveSUT struct {
	spec    *serveSpec
	srv     *server
	handler http.Handler
	model   *sequential
}

// setupServe is what setup_s times on serve-open: build the server,
// install the seeded model (compiling one eval graph per worker), and
// send bursts of every batch size so each worker has bound every plan.
func setupServe(ctx context.Context, spec *serveSpec, seed int64, in serveInputs) (*serveSUT, error) {
	t := spec.newTask()
	srv, err := newServer(t)
	if err != nil {
		return nil, err
	}
	s := &serveSUT{spec: spec, srv: srv, handler: serverHandler(srv), model: t.NewModel(seed)}
	if err := installModel(srv, s.model); err != nil {
		srv.Close()
		return nil, err
	}
	const maxBatch, reps = 8, 8 // the server's default batch cap; 4 bursts per default worker
	for rep := 0; rep < reps; rep++ {
		for size := 1; size <= maxBatch; size++ {
			errs := make([]error, size)
			var wg sync.WaitGroup
			for i := 0; i < size; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = serverPredict(ctx, srv, in.tokens[(rep*maxBatch+i)%len(in.tokens)])
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					srv.Close()
					return nil, fmt.Errorf("warm-up request: %w", err)
				}
			}
		}
	}
	return s, nil
}

func (s *serveSUT) close() { s.srv.Close() }

// predictResponse is the /v1/predict reply as a client sees it.
type predictResponse struct {
	Predictions []int       `json:"predictions"`
	Logits      [][]float32 `json:"logits"`
	Round       int         `json:"round"`
	BatchSize   int         `json:"batch_size"`
}

// memResponse is the in-memory http.ResponseWriter requests are
// answered into: no sockets, so the measurement is the handler.
type memResponse struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (m *memResponse) Header() http.Header { return m.header }
func (m *memResponse) WriteHeader(c int)   { m.status = c }
func (m *memResponse) Write(b []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.body.Write(b)
}

var predictURL = &url.URL{Path: "/v1/predict"}

// sampleEvery picks which responses are kept for the bit-match check.
const sampleEvery = 97

// sampled is a kept response: which input it answered, and either the
// raw JSON body (handler) or the logits (direct Predict).
type sampled struct {
	input  int
	body   []byte
	logits [][]float32
}

// viaHandler answers request i through Server.Handler().ServeHTTP with
// JSON in and out.
func (s *serveSUT) viaHandler(ctx context.Context, in serveInputs, keep *sampleSet) func(i int) bool {
	return func(i int) bool {
		idx := i % len(in.bodies)
		req := (&http.Request{
			Method: http.MethodPost, URL: predictURL, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:        http.Header{"Content-Type": {"application/json"}},
			Body:          io.NopCloser(bytes.NewReader(in.bodies[idx])),
			ContentLength: int64(len(in.bodies[idx])), Host: "bench",
		}).WithContext(ctx)
		rw := &memResponse{header: make(http.Header)}
		s.handler.ServeHTTP(rw, req)
		if rw.status != http.StatusOK {
			return false
		}
		if i%sampleEvery == 0 {
			keep.add(sampled{input: idx, body: rw.body.Bytes()})
		}
		return true
	}
}

// viaPredict answers request i through Server.Predict directly.
func (s *serveSUT) viaPredict(ctx context.Context, in serveInputs, keep *sampleSet) func(i int) bool {
	return func(i int) bool {
		idx := i % len(in.tokens)
		res, err := serverPredict(ctx, s.srv, in.tokens[idx])
		if err != nil {
			return false
		}
		if i%sampleEvery == 0 {
			keep.add(sampled{input: idx, logits: res.Logits})
		}
		return true
	}
}

type sampleSet struct {
	mu sync.Mutex
	s  []sampled
}

func (k *sampleSet) add(s sampled) {
	k.mu.Lock()
	k.s = append(k.s, s)
	k.mu.Unlock()
}

// checkSamples verifies every kept response bit-matches an eval-mode
// forward of the installed model on that input.
func (s *serveSUT) checkSamples(in serveInputs, keep *sampleSet) error {
	if len(keep.s) == 0 {
		return fmt.Errorf("no responses were sampled")
	}
	for _, sm := range keep.s {
		logits := sm.logits
		if sm.body != nil {
			var resp predictResponse
			if err := json.Unmarshal(sm.body, &resp); err != nil {
				return fmt.Errorf("input %d: response is not JSON: %w", sm.input, err)
			}
			logits = resp.Logits
		}
		want := evalLogits(s.model, in.tokens[sm.input])
		rows, cols := want.Dim(0), want.Dim(1)
		if len(logits) != rows {
			return fmt.Errorf("input %d: %d logit rows, want %d", sm.input, len(logits), rows)
		}
		for r := 0; r < rows; r++ {
			if len(logits[r]) != cols {
				return fmt.Errorf("input %d row %d: %d logits, want %d", sm.input, r, len(logits[r]), cols)
			}
			for c := 0; c < cols; c++ {
				if math.Float32bits(logits[r][c]) != math.Float32bits(want.At(r, c)) {
					return fmt.Errorf("input %d logit [%d,%d]: served %v, eval forward %v",
						sm.input, r, c, logits[r][c], want.At(r, c))
				}
			}
		}
	}
	return nil
}

// runLoad drives one open-loop phase of the given length at the
// workload's rate.
func (s *serveSUT) runLoad(seconds float64, call func(i int) bool) []arrival {
	n := int(seconds * float64(s.spec.rate))
	if n < 1 {
		n = 1
	}
	return openLoop(n, time.Second/time.Duration(s.spec.rate), s.spec.maxInFlight, time.Sleep, call)
}
