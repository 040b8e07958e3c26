package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"avgpipe/internal/nn"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// randomProfile draws a plausible profile for predictor property tests.
func randomProfile(r *rand.Rand) *Profile {
	k := 2 + r.Intn(5)
	p := &Profile{
		M:      []int{4, 8, 16}[r.Intn(3)],
		N:      1,
		PerGPU: make([]GPUProfile, k),
	}
	for s := range p.PerGPU {
		p.PerGPU[s] = GPUProfile{
			TGpu: 0.01 + r.Float64(),
			Comm: r.Float64() * 0.5,
			Util: 0.05 + 0.9*r.Float64(),
			FMod: int64(1+r.Intn(1000)) << 20,
			FDat: int64(1+r.Intn(1000)) << 20,
		}
	}
	return p
}

// Property: predictions are positive and finite for every legal setting.
func TestPropPredictWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomProfile(r)
		for _, m := range []int{1, 2, p.M, 4 * p.M} {
			for n := 1; n <= 4; n++ {
				pred, err := Predict(p, m, n)
				if err != nil {
					return false
				}
				if !(pred.BatchTime > 0) || math.IsInf(pred.BatchTime, 0) || math.IsNaN(pred.BatchTime) {
					return false
				}
				if pred.PeakMem() <= 0 {
					return false
				}
				for _, g := range pred.PerGPU {
					if g.TGpu < 0 || g.TCom < 0 || g.TBub < 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: predicted compute time conserves work — at unsaturated
// settings, T*gpu × throughput is invariant: (m*/m)·TGpu when r·Util ≤ 1.
func TestPropPredictComputeConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomProfile(r)
		// Choose m* ≥ m and n* = 1 so the utilization scaling
		// r = m/m* ≤ 1 keeps φ* under 100%.
		mStar := p.M * (1 + r.Intn(4))
		pred, err := Predict(p, mStar, 1)
		if err != nil {
			return false
		}
		for s, g := range pred.PerGPU {
			want := float64(mStar) / float64(p.M) * p.PerGPU[s].TGpu
			if math.Abs(g.TGpu-want) > 1e-9*math.Max(1, want) {
				t.Logf("stage %d: TGpu %v, want %v", s, g.TGpu, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: predicted memory (Eq. 8) is exactly linear in n* and the
// data part inversely linear in m*.
func TestPropPredictMemoryScaling(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomProfile(r)
		base, err := Predict(p, p.M, 1)
		if err != nil {
			return false
		}
		doubleN, err := Predict(p, p.M, 2)
		if err != nil {
			return false
		}
		for s := range p.PerGPU {
			if math.Abs(float64(doubleN.PerGPU[s].Mem)-2*float64(base.PerGPU[s].Mem)) > 2 {
				return false
			}
		}
		doubleM, err := Predict(p, 2*p.M, 1)
		if err != nil {
			return false
		}
		for s, g := range p.PerGPU {
			want := float64(g.FMod) + float64(g.FDat)/2
			if math.Abs(float64(doubleM.PerGPU[s].Mem)-want) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with identical updates from all pipelines, the reference is
// exactly init + rounds·delta regardless of N or α.
func TestPropAveragerReferenceTracksMean(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		rounds := 1 + r.Intn(6)
		delta := float32(r.NormFloat64())
		init := []*nn.Param{nn.NewParam("w", tensor.Full(1, 3))}
		a := NewAveragerObs(n, init, nil)
		defer a.Close()
		if v := 0.05 + r.Float64()*0.9; true {
			a.Alpha = v
		}
		reps := make([][]*nn.Param, n)
		for p := range reps {
			reps[p] = []*nn.Param{nn.NewParam("w", tensor.Full(1, 3))}
		}
		for round := 0; round < rounds; round++ {
			for p, rep := range reps {
				rep[0].W.AddInPlace(tensor.Full(delta, 3))
				submit(t, a, p, round, rep)
			}
			drain(t, a)
			for p, rep := range reps {
				a.Dilute(p, rep)
			}
		}
		ref := a.Reference()
		want := 1 + float64(rounds)*float64(delta)
		return math.Abs(float64(ref[0].At(0))-want) < 1e-3*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the partitioner's bottleneck cost is monotone non-increasing
// in the stage count.
func TestPropPartitionMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		layers := 4 + r.Intn(8)
		ls := make([]workload.LayerCost, layers)
		for i := range ls {
			c := 1 + r.Float64()*9
			ls[i] = workload.LayerCost{Name: "l", FwdFLOPs: c, BwdFLOPs: 2 * c,
				ParamBytes: 1, OutActBytes: 1, StashBytes: 1}
		}
		w := &workload.Workload{Name: "p", Layers: ls, BatchSize: 4}
		bottleneck := func(k int) float64 {
			var worst float64
			for _, s := range Partition(w, k, 0) {
				if c := s.FwdFLOPs + s.BwdFLOPs; c > worst {
					worst = c
				}
			}
			return worst
		}
		prev := math.Inf(1)
		for k := 1; k <= layers; k++ {
			b := bottleneck(k)
			if b > prev+1e-9 {
				t.Logf("bottleneck rose from %v to %v at k=%d", prev, b, k)
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
