package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
)

// plantedParams draws one parameter set with the given shapes: normals,
// with stretches of +0 and single −0s when zeros is set.
func plantedParams(r *rand.Rand, shapes [][]int, zeros bool) []*nn.Param {
	ps := make([]*nn.Param, len(shapes))
	for i, sh := range shapes {
		w := tensor.New(sh...)
		d := w.Data()
		for e := range d {
			d[e] = float32(r.NormFloat64())
			if zeros && r.Intn(4) == 0 {
				d[e] = 0
			}
			if zeros && r.Intn(9) == 0 {
				d[e] = float32(math.Copysign(0, -1))
			}
		}
		ps[i] = nn.NewParam("w", w)
	}
	return ps
}

// stepFrom returns weights one local step past snaps: most coefficients
// untouched (delta +0), some moved to −0 from +0 (delta −0), the rest
// perturbed — in stretches, so deltas form runs across 8-blocks.
func stepFrom(r *rand.Rand, snaps []*nn.Param) []*nn.Param {
	ws := make([]*nn.Param, len(snaps))
	for i, s := range snaps {
		w := s.W.Clone()
		d := w.Data()
		for e := 0; e < len(d); {
			n := 1 + r.Intn(24)
			switch r.Intn(4) {
			case 0:
				for j := e; j < min(e+n, len(d)); j++ {
					d[j] += float32(r.NormFloat64())
				}
			case 1:
				if d[e] == 0 && math.Signbit(float64(d[e])) == false {
					d[e] = float32(math.Copysign(0, -1))
				}
			}
			e += n
		}
		ws[i] = nn.NewParam("w", w)
	}
	return ws
}

// TestPropRunFormRoundMatchesDense: an exact update's trip in run form —
// submit, encode, decode, apply — leaves the reference bit-identical to
// the dense path (dense delta, AxpyInPlace per pipeline in pipeline
// order), for N = 1, 2 and 3 pipelines arriving in any order, with
// planted +0 and −0 deltas and a reference holding −0, over two rounds
// (the second after the first cleared or kept the reference's −0s).
func TestPropRunFormRoundMatchesDense(t *testing.T) {
	shapes := [][]int{{37}, {9, 16}, {2100}}
	prop := func(seed int64, nn8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nn8%3)
		init := plantedParams(r, shapes, true)
		reg := obs.NewRegistry()
		a := NewAveragerObs(n, init, reg)
		defer a.Close()
		want := make([]*tensor.Tensor, len(init))
		for i, p := range init {
			want[i] = p.W.Clone()
		}
		var sent float64
		for round := 0; round < 2; round++ {
			inv := float32(1 / float64(n))
			ups := make([]*netx.Frame, n)
			for p := 0; p < n; p++ {
				snaps := plantedParams(r, shapes, true)
				a.SeedReplica(p, snaps)
				ws := stepFrom(r, snaps)
				for i := range want {
					want[i].AxpyInPlace(inv, tensor.Sub(ws[i].W, snaps[i].W))
				}
				f, err := a.updateFrame(p, round, ws)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range f.Runs {
					sent += float64(len(d.Vals))
				}
				buf, err := netx.AppendFrame(nil, f)
				if err != nil {
					t.Fatal(err)
				}
				g, _, err := netx.DecodeFrameBytes(buf)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := a.updateDeltas(g); !ok {
					t.Fatal("decoded update does not fit the model")
				}
				ups[p] = g
			}
			for _, p := range r.Perm(n) {
				a.ingest(ups[p])
			}
			for i, got := range a.Reference() {
				wd, gd := want[i].Data(), got.Data()
				for e := range wd {
					if math.Float32bits(gd[e]) != math.Float32bits(wd[e]) {
						t.Logf("N=%d round %d: ref[%d][%d] bits %#x, dense path %#x",
							n, round, i, e, math.Float32bits(gd[e]), math.Float32bits(wd[e]))
						return false
					}
				}
			}
		}
		total := float64(2 * n * (37 + 9*16 + 2100))
		got := reg.Counter("avgpipe_avg_update_coeffs_total", "", "kind", "sent").Value()
		skipped := reg.Counter("avgpipe_avg_update_coeffs_total", "", "kind", "skipped").Value()
		if got != sent || got+skipped != total {
			t.Logf("coeff counters sent %v skipped %v, want %v of %v", got, skipped, sent, total)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
