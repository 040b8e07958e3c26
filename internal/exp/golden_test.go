package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenFigures renders each simulated figure that takes under a second
// (fig02 about 0.6 s, fig07 about 10 ms on 2 vCPUs) exactly as
// `avgpipe-bench <fig>` prints it: each table followed by a blank line.
// `make figures` diffs the slower figures through the command.
var goldenFigures = map[string]func() *Table{
	"fig02": Fig02,
	"fig07": Fig07,
}

// TestFigureGoldens compares each fast figure with its golden in
// testdata/<fig>.txt, the same file `make figures` diffs the slower
// figures against. AVGPIPE_WRITE_GOLDENS=1 rewrites the files instead,
// for a change meant to move a figure.
func TestFigureGoldens(t *testing.T) {
	for name, render := range goldenFigures {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := fmt.Sprintln(render())
			path := filepath.Join("testdata", name+".txt")
			if os.Getenv("AVGPIPE_WRITE_GOLDENS") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s; rewrite it with AVGPIPE_WRITE_GOLDENS=1 only for a change meant to move it:\n%s",
					name, path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff reports the first line where want and got differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "no line differs"
}
