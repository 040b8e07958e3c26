package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE lines per family, one sample
// line per series, histograms expanded into _bucket/_sum/_count. It is
// WritePrometheusFamilies over Export, so a live registry and a merged
// collector view print alike: output is deterministic (families and
// series sorted) and every value finite.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheusFamilies(w, r.Export())
}

func seriesRef(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParsePrometheus validates Prometheus text exposition output, returning
// the number of sample lines. It checks that every non-comment line is
// `name[{labels}] value` with a well-formed metric name, balanced and
// quoted labels, and a parseable float value — the malformed-output
// check `make bench-smoke` and the golden tests run against live
// /metrics output.
func ParsePrometheus(r io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if !strings.HasPrefix(text, "# HELP ") && !strings.HasPrefix(text, "# TYPE ") {
				return samples, fmt.Errorf("obs: line %d: unknown comment %q", line, text)
			}
			continue
		}
		name, value, err := splitSample(text)
		if err != nil {
			return samples, fmt.Errorf("obs: line %d: %v", line, err)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return samples, fmt.Errorf("obs: line %d: bad value %q", line, value)
		}
		base, labels, ok := splitLabels(name)
		if !ok || !validName(base) {
			return samples, fmt.Errorf("obs: line %d: bad series %q", line, name)
		}
		if err := checkLabels(labels); err != nil {
			return samples, fmt.Errorf("obs: line %d: %v in %q", line, err, name)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, fmt.Errorf("obs: scan: %w", err)
	}
	return samples, nil
}

// splitSample separates the series reference from the value. The series
// may contain spaces only inside quoted label values.
func splitSample(text string) (series, value string, err error) {
	if i := strings.LastIndexByte(text, '}'); i >= 0 {
		rest := strings.TrimSpace(text[i+1:])
		if rest == "" {
			return "", "", fmt.Errorf("missing value after %q", text)
		}
		return text[:i+1], rest, nil
	}
	fields := strings.Fields(text)
	if len(fields) != 2 {
		return "", "", fmt.Errorf("want `name value`, got %q", text)
	}
	return fields[0], fields[1], nil
}

func splitLabels(series string) (base, labels string, ok bool) {
	open := strings.IndexByte(series, '{')
	if open < 0 {
		if strings.ContainsAny(series, "}\"=") {
			return "", "", false
		}
		return series, "", true
	}
	if !strings.HasSuffix(series, "}") {
		return "", "", false
	}
	return series[:open], series[open+1 : len(series)-1], true
}

func checkLabels(labels string) error {
	if labels == "" {
		return nil
	}
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return fmt.Errorf("bad label pair %q", rest)
		}
		key := rest[:eq]
		if !validName(key) {
			return fmt.Errorf("bad label name %q", key)
		}
		rest = rest[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value after %q", key)
		}
		// Find the closing quote, honouring escapes.
		i := 1
		for i < len(rest) {
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value after %q", key)
		}
		rest = rest[i+1:]
		if rest != "" {
			if rest[0] != ',' {
				return fmt.Errorf("missing comma after label %q", key)
			}
			rest = rest[1:]
		}
	}
	return nil
}
