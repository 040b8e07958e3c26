package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Structured registry export. Export captures the registry as plain
// data — JSON-marshalable, mergeable — which is what one replica ships
// to the telemetry collector inside a FrameTelemetry blob. The
// collector edits the label sets (injecting `replica="id"`), merges
// families across replicas, and renders the result back to Prometheus
// text with WritePrometheusFamilies.

// SeriesExport is one series of a FamilyExport. Counters and gauges use
// Value; histograms use Bounds (finite upper bounds), Counts (per-
// bucket counts, one longer than Bounds for the +Inf overflow bucket),
// Sum, and Count.
type SeriesExport struct {
	Labels string    `json:"labels,omitempty"`
	Value  float64   `json:"value,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	Count  uint64    `json:"count,omitempty"`
}

// FamilyExport is one metric family with all of its series.
type FamilyExport struct {
	Name   string         `json:"name"`
	Help   string         `json:"help,omitempty"`
	Type   string         `json:"type"`
	Series []SeriesExport `json:"series"`
}

// Export snapshots the registry as plain data, families sorted by name
// and series by label string. All float values are finite (NaN/Inf
// sanitized to 0) so the result always survives json.Marshal.
func (r *Registry) Export() []FamilyExport {
	views := r.view()
	out := make([]FamilyExport, 0, len(views))
	for _, f := range views {
		fe := FamilyExport{Name: f.name, Help: f.help, Type: f.typ}
		for i, ls := range f.labels {
			se := SeriesExport{Labels: ls}
			switch m := f.metrics[i].(type) {
			case *Counter:
				se.Value = finite(m.Value())
			case *Gauge:
				se.Value = finite(m.Value())
			case *Histogram:
				se.Bounds = append([]float64(nil), m.bounds...)
				se.Counts = make([]uint64, len(m.counts))
				for b := range m.counts {
					se.Counts[b] = m.counts[b].Load()
				}
				se.Sum = finite(m.Sum())
				se.Count = m.Count()
			}
			fe.Series = append(fe.Series, se)
		}
		out = append(out, fe)
	}
	return out
}

// WritePrometheusFamilies renders exported (possibly merged and
// relabeled) families as Prometheus text; Registry.WritePrometheus is
// this writer over Export. Families are sorted by name, series by label
// string, histograms expanded into cumulative buckets, and a NaN or
// ±Inf value is written as 0.
func WritePrometheusFamilies(w io.Writer, fams []FamilyExport) error {
	sorted := append([]FamilyExport(nil), fams...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	bw := bufio.NewWriter(w)
	for _, f := range sorted {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		series := append([]SeriesExport(nil), f.Series...)
		sort.Slice(series, func(i, j int) bool { return series[i].Labels < series[j].Labels })
		for _, s := range series {
			if f.Type != typeHistogram {
				fmt.Fprintf(bw, "%s %s\n", seriesRef(f.Name, s.Labels), fmtFloat(finite(s.Value)))
				continue
			}
			var cum uint64
			for b, n := range s.Counts {
				cum += n
				leStr := "+Inf"
				if b < len(s.Bounds) {
					leStr = fmtFloat(s.Bounds[b])
				}
				withLE := s.Labels
				if withLE != "" {
					withLE += ","
				}
				withLE += fmt.Sprintf("le=%q", leStr)
				fmt.Fprintf(bw, "%s %d\n", seriesRef(f.Name+"_bucket", withLE), cum)
			}
			fmt.Fprintf(bw, "%s %s\n", seriesRef(f.Name+"_sum", s.Labels), fmtFloat(finite(s.Sum)))
			fmt.Fprintf(bw, "%s %d\n", seriesRef(f.Name+"_count", s.Labels), s.Count)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: write prometheus families: %w", err)
	}
	return nil
}

// WithLabel returns the label string ls with key=value prepended, or ls
// unchanged if it already carries the key (a series exported with an
// explicit replica label must not get a second one from the collector).
func WithLabel(ls, key, value string) string {
	if strings.Contains(ls, key+"=") {
		return ls
	}
	pair := fmt.Sprintf("%s=%q", key, value)
	if ls == "" {
		return pair
	}
	return pair + "," + ls
}

// SeriesValue finds the value of the series with the given labels in
// the exported families (counters and gauges); ok is false when the
// family or series is absent.
func SeriesValue(fams []FamilyExport, name, labels string) (v float64, ok bool) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Labels == labels {
				return s.Value, true
			}
		}
	}
	return 0, false
}
