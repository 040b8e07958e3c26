//go:build exhaustive

package tensor

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestActKernelsExhaustive is `make exhaustive-act`: every verified
// activation kernel (actDefs) against its definition on every one of the
// 2^32 float32 inputs. The exhaustive build tag selects this test and
// nothing else; the kernels are the same with or without it.
//
// It also owns testdata/act-rejects-*.f32, the inputs in [−rejectLimit,
// rejectLimit] whose lane the rounding test rejects, which
// TestActKernelsMatchDefinition checks on every run: the table must equal
// what this sweep finds, and AVGPIPE_WRITE_ACT_REJECTS=1 rewrites it after
// a change to the kernels.
func TestActKernelsExhaustive(t *testing.T) {
	for _, a := range actDefs {
		start := time.Now()
		r := actSweep(a.act, a.def, 1, a.rejectLimit)
		t.Logf("%s: %d inputs in %v, %d mismatches; %d lanes (%.2f%%) by the scalar definition "+
			"(NaN, ±Inf, |x| > %g and rejected lanes); %d rejected by the rounding test in [-%g,%g] (%.2g of its %d inputs)",
			a.name, r.inputs, time.Since(start).Round(time.Second), r.mismatchCount,
			r.scalar, 100*float64(r.scalar)/float64(r.inputs), a.fastLimit,
			len(r.rejects), a.rejectLimit, a.rejectLimit, float64(len(r.rejects))/float64(r.rejectRange), r.rejectRange)
		if r.mismatchCount > 0 {
			t.Errorf("%s: %d inputs differ from the definition, first %#x", a.name, r.mismatchCount, r.mismatches)
		}

		path := filepath.Join("testdata", "act-rejects-"+a.name+".f32")
		if os.Getenv("AVGPIPE_WRITE_ACT_REJECTS") != "" {
			b := make([]byte, 4*len(r.rejects))
			for i, u := range r.rejects {
				binary.LittleEndian.PutUint32(b[4*i:], u)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var want []uint32
		for _, x := range readF32(t, filepath.Base(path)) {
			want = append(want, math.Float32bits(x))
		}
		if !slices.Equal(r.rejects, want) {
			t.Errorf("%s: the rounding test rejects %d inputs in [-%g,%g] but %s lists %d; "+
				"rewrite it with AVGPIPE_WRITE_ACT_REJECTS=1 make exhaustive-act",
				a.name, len(r.rejects), a.rejectLimit, a.rejectLimit, path, len(want))
		}
	}
}
