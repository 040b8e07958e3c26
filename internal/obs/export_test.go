package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestExportAndRenderFamilies(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("seen_total", "Things seen.").Add(3)
	reg.Gauge("depth", "Queue depth.", "q", "a").Set(2)
	reg.Gauge("depth", "Queue depth.", "q", "b").Set(5)
	reg.Histogram("lat_seconds", "Latency.", []float64{0.1, 1}).Observe(0.5)

	fams := reg.Export()
	if len(fams) != 3 {
		t.Fatalf("exported %d families, want 3", len(fams))
	}
	if v, ok := SeriesValue(fams, "seen_total", ""); !ok || v != 3 {
		t.Fatalf("seen_total = (%v, %v)", v, ok)
	}
	if v, ok := SeriesValue(fams, "depth", `q="b"`); !ok || v != 5 {
		t.Fatalf(`depth{q="b"} = (%v, %v)`, v, ok)
	}
	if _, ok := SeriesValue(fams, "absent", ""); ok {
		t.Fatal("absent family found")
	}

	// The export is wire-safe plain data.
	blob, err := json.Marshal(fams)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []FamilyExport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	// Rendering the round-tripped export matches the registry's own
	// Prometheus exposition byte for byte.
	var direct, viaExport bytes.Buffer
	if err := reg.WritePrometheus(&direct); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheusFamilies(&viaExport, back); err != nil {
		t.Fatal(err)
	}
	if direct.String() != viaExport.String() {
		t.Fatalf("export render diverges:\n--- direct ---\n%s--- via export ---\n%s",
			direct.String(), viaExport.String())
	}
	// And it survives the strict parser used across the obs tests.
	if _, err := ParsePrometheus(strings.NewReader(viaExport.String())); err != nil {
		t.Fatalf("rendered export does not parse: %v", err)
	}
}

// TestWritePrometheusIsFamiliesWriter pins the live exposition to the
// export path's writer, non-finite gauges included: both print a NaN or
// ±Inf gauge as 0, so a scrape never carries a value the collector's
// merged view would not.
func TestWritePrometheusIsFamiliesWriter(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sent_total", "Frames sent.", "peer", "1").Add(4)
	reg.Counter("sent_total", "Frames sent.", "peer", "2").Add(7)
	h := reg.Histogram("rtt_seconds", "Round trip.", []float64{0.01, 0.1}, "peer", "1")
	h.Observe(0.005)
	h.Observe(0.5)
	reg.Gauge("ratio", "A ratio.", "kind", "nan").Set(math.NaN())
	reg.Gauge("ratio", "A ratio.", "kind", "inf").Set(math.Inf(-1))

	var live, families bytes.Buffer
	if err := reg.WritePrometheus(&live); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheusFamilies(&families, reg.Export()); err != nil {
		t.Fatal(err)
	}
	if live.String() != families.String() {
		t.Fatalf("live exposition diverges:\n--- live ---\n%s--- families ---\n%s",
			live.String(), families.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(live.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("sample %q is not a finite value", line)
		}
	}
}

func TestWithLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", `replica="2"`},
		{`stage="1"`, `replica="2",stage="1"`},
		{`replica="0"`, `replica="0"`}, // existing replica label wins
	}
	for _, tc := range cases {
		if got := WithLabel(tc.in, "replica", "2"); got != tc.want {
			t.Errorf("WithLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestMergedFamiliesRelabel is the collector's core merge invariant at
// the obs layer: relabeled series from two registries render into one
// exposition with disjoint replica labels.
func TestMergedFamiliesRelabel(t *testing.T) {
	var merged []FamilyExport
	for r := 0; r < 2; r++ {
		reg := NewRegistry()
		reg.Gauge("loss", "Training loss.").Set(float64(r + 1))
		for _, f := range reg.Export() {
			for i := range f.Series {
				f.Series[i].Labels = WithLabel(f.Series[i].Labels, "replica", string(rune('0'+r)))
			}
			merged = append(merged, f)
		}
	}
	var buf bytes.Buffer
	if err := WritePrometheusFamilies(&buf, merged); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`loss{replica="0"} 1`, `loss{replica="1"} 2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged exposition missing %q:\n%s", want, out)
		}
	}
}
