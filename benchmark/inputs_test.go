package main

import (
	"bytes"
	"testing"
)

// The same seed gives the same inputs, another seed gives others.
func TestServeInputsSeedDeterminism(t *testing.T) {
	a, b, c := genServeInputs(5, 64, 5, 10), genServeInputs(5, 64, 5, 10), genServeInputs(6, 64, 5, 10)
	same, differ := true, false
	for i := range a.bodies {
		same = same && bytes.Equal(a.bodies[i], b.bodies[i])
		differ = differ || !bytes.Equal(a.bodies[i], c.bodies[i])
		for _, tok := range a.tokens[i] {
			if tok < 0 || tok >= 10 {
				t.Fatalf("token %d outside the vocabulary", tok)
			}
		}
	}
	if !same || !differ {
		t.Errorf("same seed equal: %v; other seed differs: %v; want true, true", same, differ)
	}
	if want := `{"tokens":[`; !bytes.HasPrefix(a.bodies[0], []byte(want)) {
		t.Errorf("body %s does not start with %s", a.bodies[0], want)
	}
}

func TestWideGenSeedDeterminism(t *testing.T) {
	task := awdWideTask()
	draw := func(seed int64) []float32 {
		g := task.NewGen(seed)
		out := append([]float32(nil), g.EvalBatch().X.Data()...)
		return append(out, nextBatch(g, task.BatchSize).X.Data()...)
	}
	a, b, c := draw(3), draw(3), draw(4)
	same, differ, hot := true, false, 0
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
		if a[i] < 0 || a[i] >= awdRows {
			t.Fatalf("token id %v outside the %d-row embedding", a[i], awdRows)
		}
		if a[i] < awdStates {
			hot++
		}
	}
	if !same || !differ {
		t.Errorf("same seed equal: %v; other seed differs: %v; want true, true", same, differ)
	}
	// The skew is what makes the task learnable: a good share of tokens
	// sit on the 16 hottest rows, the rest spread over the other 32752.
	if share := float64(hot) / float64(len(a)); share < 0.15 || share > 0.6 {
		t.Errorf("%.2f of tokens on the hottest rows, want between 0.15 and 0.6", share)
	}
}
