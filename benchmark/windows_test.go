package main

import (
	"testing"
	"time"
)

// Three one-second windows: a quiet one, a slowed one, and one with too
// few ops to count. Each figure reports its best window.
func TestWindowStatsPickTheQuietSecond(t *testing.T) {
	marks := []cpuMark{
		{at: 0, cpu: 0},
		{at: 1 * time.Second, cpu: 1500 * time.Millisecond},
		{at: 2 * time.Second, cpu: 3500 * time.Millisecond},
		{at: 3 * time.Second, cpu: 3600 * time.Millisecond},
	}
	var ops []opSample
	for i := 0; i < 100; i++ { // window 0: 100 ops of 10 ms
		ops = append(ops, opSample{end: time.Duration(i) * 10 * time.Millisecond, ms: 10})
	}
	for i := 0; i < 50; i++ { // window 1: 50 ops of 20 ms
		ops = append(ops, opSample{end: time.Second + time.Duration(i)*20*time.Millisecond, ms: 20})
	}
	for i := 0; i < 5; i++ { // window 2: 5 fast ops — too few to trust
		ops = append(ops, opSample{end: 2*time.Second + time.Duration(i)*time.Millisecond, ms: 1})
	}
	ws := windowStats(marks, ops)
	if len(ws) != 2 {
		t.Fatalf("%d windows counted, want 2 (the 5-op window is left out)", len(ws))
	}
	if ws[0].ops != 100 || ws[0].opsPerS != 100 || ws[0].p50MS != 10 || ws[0].cpuMSPerOp != 15 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1].ops != 50 || ws[1].opsPerS != 50 || ws[1].p50MS != 20 || ws[1].cpuMSPerOp != 40 {
		t.Errorf("window 1 = %+v", ws[1])
	}
	rate, p50, cpu := bestWindows(ws)
	if rate != 100 || p50 != 10 || cpu != 15 {
		t.Errorf("best = %g ops/s, %g ms, %g cpu ms/op; want 100, 10, 15", rate, p50, cpu)
	}
}

// A run shorter than a window falls back to whole-run figures.
func TestEndToEndFiguresShortRun(t *testing.T) {
	marks := []cpuMark{{at: 0, cpu: 0}, {at: 300 * time.Millisecond, cpu: 450 * time.Millisecond}}
	var ops []opSample
	for i := 0; i < 30; i++ {
		ops = append(ops, opSample{end: time.Duration(i) * 10 * time.Millisecond, ms: 10})
	}
	res := &runResult{}
	rate, p50, cpu := endToEndFigures(res, marks, ops)
	if rate != 100 || p50 != 10 || cpu != 15 || res.Whole.Windows != 0 {
		t.Errorf("got %g ops/s, %g ms, %g cpu ms/op, %d windows; want 100, 10, 15, 0", rate, p50, cpu, res.Whole.Windows)
	}
}
