package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"avgpipe/internal/obs"
)

// PredictRequest is the POST /v1/predict body.
type PredictRequest struct {
	// Tokens is the input sequence: exactly SeqLen ids in [0, Vocab).
	Tokens []int `json:"tokens"`
}

// PredictResponse is the reply. Predictions has one entry per output
// row (seqLen for per-position tasks, 1 for per-sequence tasks); Logits
// carries the raw scores behind them.
type PredictResponse struct {
	Predictions []int       `json:"predictions"`
	Logits      [][]float32 `json:"logits,omitempty"`
	Round       int         `json:"round"`
	BatchSize   int         `json:"batch_size"`
}

// Handler serves the inference API plus the full observability surface:
//
//	POST /v1/predict   batched inference on the averaged model
//	GET  /v1/info      task name, seq_len, vocab, serving round
//	/metrics /healthz /readyz /debug...   via obs.Handler
//
// /readyz reports 503 until the first model version is installed.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		var req PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		res, err := s.Predict(r.Context(), req.Tokens)
		if err != nil {
			code := http.StatusBadRequest
			switch err {
			case ErrNoModel, ErrClosed:
				code = http.StatusServiceUnavailable
			case r.Context().Err():
				code = http.StatusRequestTimeout
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		err = json.NewEncoder(w).Encode(PredictResponse{
			Predictions: res.Predictions,
			Logits:      res.Logits,
			Round:       res.Round,
			BatchSize:   res.BatchSize,
		})
		// A NaN logit fails to encode before anything is written.
		var unsupported *json.UnsupportedValueError
		if errors.As(err, &unsupported) {
			http.Error(w, "serve: encode response: "+err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"task":    s.cfg.Task.Name,
			"seq_len": s.seqLen,
			"vocab":   s.vocab,
			"round":   s.Round(),
		})
	})
	mux.Handle("/", obs.Handler(s.cfg.Obs, obs.WithHealth(s.health)))
	return mux
}
