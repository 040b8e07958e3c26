package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"avgpipe/internal/workload"
)

// TestHTTPEndToEnd covers the whole HTTP surface: readiness flips on
// first install, /v1/predict round-trips JSON and matches the direct
// Predict path, /v1/info describes the task, and the serve metrics
// appear in /metrics exposition.
func TestHTTPEndToEnd(t *testing.T) {
	task := workload.TranslationTask()
	s := newTestServer(t, Config{Task: task, MaxBatch: 4, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no model") {
		t.Fatalf("/readyz before install = %d %q, want 503 with reason", code, body)
	}

	toks := testTokens(t, s, 4)[0]
	body, _ := json.Marshal(PredictRequest{Tokens: toks})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict before install = %d, want 503", resp.StatusCode)
	}

	model := task.NewModel(6)
	if err := s.InstallSnapshot(snapFrame(model.Params(), 7)); err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after install = %d", code)
	}

	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d", resp.StatusCode)
	}
	if pr.Round != 7 || len(pr.Predictions) != s.SeqLen() {
		t.Fatalf("predict response %+v: want round 7, %d predictions", pr, s.SeqLen())
	}
	direct, err := s.Predict(context.Background(), toks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Predictions {
		if direct.Predictions[i] != pr.Predictions[i] {
			t.Fatalf("HTTP predictions diverge from direct Predict at %d", i)
		}
	}

	// Malformed requests: bad JSON, wrong token count, wrong method.
	resp, _ = http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", resp.StatusCode)
	}
	short, _ := json.Marshal(PredictRequest{Tokens: toks[:1]})
	resp, _ = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(short))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short request = %d", resp.StatusCode)
	}
	// GET /v1/predict misses the POST pattern and falls through to the
	// obs catch-all; it must not answer 200.
	if code, _ := get("/v1/predict"); code == http.StatusOK {
		t.Fatal("GET predict answered 200")
	}

	if code, body := get("/v1/info"); code != http.StatusOK ||
		!strings.Contains(body, `"task":"translation"`) || !strings.Contains(body, `"round":7`) {
		t.Fatalf("/v1/info = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "avgpipe_serve_latency_seconds") ||
		!strings.Contains(body, "avgpipe_serve_batch_occupancy") ||
		!strings.Contains(body, "avgpipe_serve_model_round 7") {
		t.Fatalf("/metrics missing serve families:\n%.600s", body)
	}
}

// TestPredictNaNLogitsIs500: JSON has no NaN, so a model whose logits
// are NaN cannot be encoded; /v1/predict must say so with a 500, not
// answer 200 with an empty body.
func TestPredictNaNLogitsIs500(t *testing.T) {
	task := workload.TranslationTask()
	s := newTestServer(t, Config{Task: task, Workers: 1})
	ps := task.NewModel(6).Params()
	ps[len(ps)-1].W.Data()[0] = float32(math.NaN())
	if err := s.InstallSnapshot(snapFrame(ps, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(PredictRequest{Tokens: testTokens(t, s, 4)[0]})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(msg), "NaN") {
		t.Fatalf("NaN logits: %d %q, want 500 naming the NaN", resp.StatusCode, msg)
	}
}
