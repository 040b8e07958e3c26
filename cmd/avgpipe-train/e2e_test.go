package main

import (
	"encoding/json"
	"fmt"
	"math"
	gonet "net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The end-to-end gate for the wire transport: the same seed trained as
// one OS process and as two OS processes exchanging updates over a TCP
// loopback mesh must produce bit-identical per-round local losses.

type stepRec struct {
	Round   int       `json:"round"`
	Loss    float64   `json:"loss"`
	Losses  []float64 `json:"losses"`
	Replica int       `json:"replica"`
}

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "avgpipe-train")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them; the window between release and the trainer's own bind is the
// usual (small, local-only) reuse race.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]gonet.Listener, n)
	for i := range addrs {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func readRecords(t *testing.T, path string) []stepRec {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []stepRec
	dec := json.NewDecoder(f)
	for dec.More() {
		var r stepRec
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		recs = append(recs, r)
	}
	return recs
}

func TestTwoProcessLoopbackMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs three training processes")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	common := []string{
		"-task", "translation", "-pipelines", "2", "-micro", "2",
		"-stages", "2", "-rounds", "3", "-seed", "9",
	}

	// Reference: the whole job in one process. -rounds 3 trains exactly
	// three rounds, and the final checkpoint is saved at round 3.
	singleLog := filepath.Join(dir, "single.jsonl")
	ckpt := filepath.Join(dir, "ckpt")
	single := exec.Command(bin, append([]string{"-stats-jsonl", singleLog, "-checkpoint-dir", ckpt}, common...)...)
	out, err := single.CombinedOutput()
	if err != nil {
		t.Fatalf("single-process run: %v\n%s", err, out)
	}
	want := readRecords(t, singleLog)
	if len(want) != 3 {
		t.Fatalf("single-process run with -rounds 3 logged %d rounds", len(want))
	}
	meta, err := os.ReadFile(filepath.Join(ckpt, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var info struct{ Round int }
	if err := json.Unmarshal(meta, &info); err != nil || info.Round != 3 {
		t.Fatalf("checkpoint after -rounds 3: meta.json round %d (%v), want 3", info.Round, err)
	}
	if line := fmt.Sprintf("checkpoint saved to %s at round 3", ckpt); !strings.Contains(string(out), line) {
		t.Fatalf("output lacks %q:\n%s", line, out)
	}

	// The same job as two OS processes over TCP loopback.
	addrs := freePorts(t, 2)
	logs := []string{filepath.Join(dir, "rep0.jsonl"), filepath.Join(dir, "rep1.jsonl")}
	outs := make([][]byte, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		peer := fmt.Sprintf("%d=%s", 1-p, addrs[1-p])
		args := append([]string{
			"-replica-id", fmt.Sprint(p), "-listen", addrs[p], "-peers", peer,
			"-stats-jsonl", logs[p],
		}, common...)
		wg.Add(1)
		go func(p int, args []string) {
			defer wg.Done()
			outs[p], errs[p] = exec.Command(bin, args...).CombinedOutput()
		}(p, args)
	}
	wg.Wait()
	for p := 0; p < 2; p++ {
		if errs[p] != nil {
			t.Fatalf("replica %d: %v\n%s", p, errs[p], outs[p])
		}
	}

	for p := 0; p < 2; p++ {
		got := readRecords(t, logs[p])
		if len(got) != len(want) {
			t.Fatalf("replica %d logged %d rounds, single process logged %d", p, len(got), len(want))
		}
		for i, rec := range got {
			if rec.Round != want[i].Round || rec.Replica != p {
				t.Fatalf("replica %d record %d: unexpected round/replica %+v", p, i, rec)
			}
			w := want[i].Losses[p]
			if math.Float64bits(rec.Loss) != math.Float64bits(w) {
				t.Errorf("replica %d round %d: 2-process loss %.17g (bits %016x) != "+
					"single-process loss %.17g (bits %016x)",
					p, rec.Round, rec.Loss, math.Float64bits(rec.Loss), w, math.Float64bits(w))
			}
		}
	}
}

// TestAdvanceOffAFPFails checks that -advance with a schedule other than
// afp stops the run with an error instead of training without it.
func TestAdvanceOffAFPFails(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-schedule", "1f1b", "-advance", "1,0", "-rounds", "1").CombinedOutput()
	if err == nil {
		t.Fatalf("-schedule 1f1b -advance 1,0 exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "applies to the afp schedule only") {
		t.Fatalf("want the afp-only error, got:\n%s", out)
	}
}
