package sched

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// legalAdvanceVec draws a random advance vector that LegalAdvance
// accepts: advance[s] ≤ advance[s−1]+1 keeps every stage's warmup within
// its upstream's.
func legalAdvanceVec(r *rand.Rand, k, m int) []int {
	adv := make([]int, k)
	for s := range adv {
		adv[s] = r.Intn(m + 2)
		if s > 0 && adv[s] > adv[s-1]+1 {
			adv[s] = adv[s-1] + 1
		}
	}
	return adv
}

// Property: every generated schedule family passes Analyze, with the
// analytic op counts each stage must see (m·batches of each kind).
func TestPropGeneratedSchedulesLegal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(5)
		m := 1 + r.Intn(8)
		batches := 1 + r.Intn(2)
		schedules := []*Schedule{
			AFAB(k, m, batches), GPipe(k, m, batches),
			OneFOneB(k, m, batches), Dapple(k, m, batches),
			PipeDream(k, m, batches), PipeDream2BW(k, m, batches),
			AFP(k, m, batches, legalAdvanceVec(r, k, m)),
		}
		for _, s := range schedules {
			an, err := Analyze(s)
			if err != nil {
				t.Logf("K=%d M=%d B=%d %s: %v", k, m, batches, s.Name, err)
				return false
			}
			for g := 0; g < k; g++ {
				if an.Fwd[g] != m*batches || an.Bwd[g] != m*batches {
					t.Logf("%s GPU %d: %dF %dB, want %d each", s.Name, g, an.Fwd[g], an.Bwd[g], m*batches)
					return false
				}
				// Flushed schedules bound the stash per batch; continuous
				// ones (PipeDream) only per the whole run.
				bound := m
				if s.Continuous {
					bound = m * batches
				}
				if an.MaxInFlight[g] < 1 || an.MaxInFlight[g] > bound {
					t.Logf("%s GPU %d: stash peak %d outside [1, %d]", s.Name, g, an.MaxInFlight[g], bound)
					return false
				}
			}
		}
		// The 1F1B stash rule: stage s keeps exactly min(K−s, m) live.
		an, err := Analyze(OneFOneB(k, m, 1))
		if err != nil {
			return false
		}
		for s := 0; s < k; s++ {
			want := k - s
			if want > m {
				want = m
			}
			if an.MaxInFlight[s] != want {
				t.Logf("1F1B K=%d M=%d stage %d: stash %d, want %d", k, m, s, an.MaxInFlight[s], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Analyze accepts an AFP advance vector exactly when
// LegalAdvance does — the analytic legality rule and the dependency
// event simulation agree on every random vector.
func TestPropAnalyzeMatchesLegalAdvance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		m := 2 + r.Intn(8)
		adv := make([]int, k)
		for s := range adv {
			adv[s] = r.Intn(m + 3)
		}
		_, err := Analyze(AFP(k, m, 1+r.Intn(2), adv))
		legal := LegalAdvance(k, m, adv)
		if (err == nil) != legal {
			t.Logf("K=%d M=%d advance %v: Analyze err=%v, LegalAdvance=%v", k, m, adv, err, legal)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeRejectsPermutedSchedules(t *testing.T) {
	// (a) A backward hoisted before its forward on one GPU.
	s := OneFOneB(2, 4, 1)
	s.PerGPU[1][0], s.PerGPU[1][1] = s.PerGPU[1][1], s.PerGPU[1][0]
	if _, err := Analyze(s); err == nil {
		t.Fatal("Analyze accepted a B-before-F permutation")
	}
	// (b) Cross-stage warmup inversion: stage 1 warms up with more
	// forwards than stage 0 can feed before stage 0 needs a backward —
	// each GPU's order is locally valid but the stages deadlock.
	dead := &Schedule{Name: "inverted", PerGPU: [][]Op{
		{{Fwd, 0}, {Bwd, 0}, {Fwd, 1}, {Bwd, 1}},
		{{Fwd, 0}, {Fwd, 1}, {Bwd, 0}, {Bwd, 1}},
	}}
	if dead.Validate() != nil {
		t.Fatal("per-GPU structure should be valid")
	}
	_, err := Analyze(dead)
	if err == nil {
		t.Fatal("Analyze accepted a cross-stage deadlock")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	// (c) GPUs disagreeing on the micro set.
	mismatch := &Schedule{Name: "mismatch", PerGPU: [][]Op{
		{{Fwd, 0}, {Bwd, 0}},
		{{Fwd, 1}, {Bwd, 1}},
	}}
	if _, err := Analyze(mismatch); err == nil {
		t.Fatal("Analyze accepted GPUs covering different micros")
	}
	// (d) A swapped grad-weight pair: structurally valid and deadlock-free,
	// but micro 1's gradients would accumulate before micro 0's.
	swapped := &Schedule{Name: "swapped", PerGPU: [][]Op{
		{{Fwd, 0}, {Fwd, 1}, {BwdIn, 0}, {BwdIn, 1}, {BwdW, 1}, {BwdW, 0}},
	}}
	if swapped.Validate() != nil {
		t.Fatal("per-GPU structure should be valid")
	}
	_, err = Analyze(swapped)
	if err == nil || !strings.Contains(err.Error(), "runs Bw2 out of accumulation order") {
		t.Fatalf("want the out-of-order Bw2 named, got %v", err)
	}
}

// TestBuiltinPlansKeepAccumulationOrder: every built-in schedule family,
// split the way the runtime runs it, passes the accumulation-order check.
func TestBuiltinPlansKeepAccumulationOrder(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for _, m := range []int{1, 3, 4, 8} {
			for _, s := range []*Schedule{
				AFAB(k, m, 2), GPipe(k, m, 2), OneFOneB(k, m, 2), Dapple(k, m, 2),
				PipeDream(k, m, 2), PipeDream2BW(k, m, 2), AFP(k, m, 2, make([]int, k)),
			} {
				if _, err := Analyze(SplitBackward(s)); err != nil {
					t.Errorf("K=%d M=%d split %s: %v", k, m, s.Name, err)
				}
			}
		}
	}
}

func TestPlanByName(t *testing.T) {
	for name, want := range map[string]string{
		"afab": "AFAB", "gpipe": "GPipe", "1f1b": "1F1B",
		"dapple": "Dapple", "afp": "AFP", "": "AFP",
	} {
		p, err := PlanByName(name, nil)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if p.Name != want {
			t.Fatalf("%q resolved to %q, want %q", name, p.Name, want)
		}
		s := p.Make(3, 4)
		if _, err := Analyze(s); err != nil {
			t.Fatalf("%q generated illegal schedule: %v", name, err)
		}
	}
	if _, err := PlanByName("chimera", nil); err == nil {
		t.Fatal("unknown plan name accepted")
	}
	for _, name := range []string{"afab", "gpipe", "1f1b", "dapple"} {
		if _, err := PlanByName(name, []int{1, 0}); err == nil || !strings.Contains(err.Error(), "afp schedule only") {
			t.Fatalf("%q with an advance vector: got error %v, want it refused", name, err)
		}
	}
	// The AFP plan threads its advance vector through.
	p, _ := PlanByName("afp", []int{2, 0})
	an, err := Analyze(p.Make(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if an.MaxInFlight[0] != 4 { // warmup K−0+2 = 4
		t.Fatalf("AFP advance ignored: stash peak %d, want 4", an.MaxInFlight[0])
	}
}

// Property: Interleave keeps every op of every pipeline exactly once, on
// the GPU its placement names and in its own order; each GPU cycles
// through the pipelines 0..n−1; the placement is its own inverse; and
// the result is a legal schedule whose in-flight bound is n times the
// original's when no pipeline is reversed.
func TestPropInterleave(t *testing.T) {
	type key struct {
		stage int
		op    Op
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k, m, n := 1+r.Intn(5), 1+r.Intn(8), 1+r.Intn(4)
		reverse := r.Intn(2) == 1
		s := OneFOneB(k, m, 1+r.Intn(2))
		if r.Intn(2) == 1 {
			s = SplitBackward(s)
		}
		e := Interleave(s, n, reverse)
		if _, err := Analyze(e); err != nil {
			t.Log(err)
			return false
		}
		count := map[key]int{}
		for st, ops := range s.PerGPU {
			for _, op := range ops {
				for p := 0; p < n; p++ {
					count[key{st, Op{op.Kind, op.Micro*n + p}}]++
				}
			}
		}
		for g, ops := range e.PerGPU {
			for i, op := range ops {
				if op.Micro%n != i%n {
					t.Logf("GPU %d op %d is %s, of pipeline %d, want %d", g, i, op, op.Micro%n, i%n)
					return false
				}
				st := e.Stage(g, op.Micro)
				if e.Stage(st, op.Micro) != g {
					t.Logf("placement of %s is not its own inverse", op)
					return false
				}
				want := g
				if reverse && op.Micro%n%2 == 1 {
					want = k - 1 - g
				}
				if st != want {
					t.Logf("GPU %d runs %s as stage %d, want %d", g, op, st, want)
					return false
				}
				// Per GPU, each pipeline's ops keep their source order.
				if src := s.PerGPU[st][i/n]; src.Kind != op.Kind || src.Micro*n+op.Micro%n != op.Micro {
					t.Logf("GPU %d op %d is %s, want %s of stage %d", g, i, op, src, st)
					return false
				}
				count[key{st, op}]--
			}
		}
		for kk, c := range count {
			if c != 0 {
				t.Logf("stage %d op %s appears %d times too few", kk.stage, kk.op, c)
				return false
			}
		}
		if reverse && n > 1 {
			return e.Reversed()
		}
		orig, exp := s.MaxInFlight(), e.MaxInFlight()
		for g := range orig {
			if exp[g] != n*orig[g] {
				t.Logf("gpu %d inflight %d, want %d", g, exp[g], n*orig[g])
				return false
			}
		}
		return !e.Reversed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
