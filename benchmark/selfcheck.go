package main

import (
	"context"
	"fmt"
	"time"
)

// The sensitivity self-check slows one layer through the public fault
// knobs (TrainerConfig.Faults) and requires the slow-down to show up in
// that layer's metric and in the top line of the workload built to
// expose it — and not in the neighbouring layer's metric.
const (
	// stragglerDelay is added to every stage op (StragglerProb = 1).
	stragglerDelay = time.Millisecond
	// msgDelay holds back every averaging update (MsgDelayProb = 1).
	msgDelay = 10 * time.Millisecond
	// landed is the share of an injected delay that must be visible for
	// it to count as attributed; leaked is the most of it the wrong
	// layer's metric may pick up.
	landed, leaked = 0.7, 0.25
)

type checkRun struct {
	res *runResult
}

func (c checkRun) m(name string) float64 { return c.res.Metrics[name].Value }

func runSelfcheck(ctx context.Context, seed int64, seconds float64) error {
	run := func(name string, f faultConfig) (checkRun, error) {
		res, err := runWorkload(ctx, workloadByName(name), seed, seconds/2, true, runOpts{faults: f, noProbes: true})
		if err != nil {
			return checkRun{}, fmt.Errorf("%s %+v: %w", name, f, err)
		}
		if !res.Correct || res.Failed > 0 {
			return checkRun{}, fmt.Errorf("%s %+v: correct=%v failed=%d %v", name, f, res.Correct, res.Failed, res.Problems)
		}
		return checkRun{res}, nil
	}
	var failures []string
	expect := func(ok bool, format string, args ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		fmt.Printf("  %s %s\n", verdict, fmt.Sprintf(format, args...))
	}

	// (a) A straggler in every stage op of gnmt-n2: 2M ops per stage per
	// batch, so each stage is busy 2M·delay longer.
	gnmt := workloadByName("gnmt-n2").train
	want := float64(2*gnmt.m) * ms(int64(stragglerDelay))
	base, err := run("gnmt-n2", faultConfig{})
	if err != nil {
		return err
	}
	slow, err := run("gnmt-n2", faultConfig{StragglerProb: 1, StragglerDelay: stragglerDelay})
	if err != nil {
		return err
	}
	fmt.Printf("gnmt-n2, %v straggler on every stage op (expect +%.3g ms per stage per batch):\n", stragglerDelay, want)
	d := slow.m("core.stage_busy_ms") - base.m("core.stage_busy_ms")
	expect(d >= landed*want, "core.stage_busy_ms moved %+.3f ms (%.3f -> %.3f)", d, base.m("core.stage_busy_ms"), slow.m("core.stage_busy_ms"))
	d = slow.res.UntracedP50 - base.res.UntracedP50
	expect(d >= landed*want, "untraced step p50 (latency_ms_p50) moved %+.3f ms (%.3f -> %.3f)", d, base.res.UntracedP50, slow.res.UntracedP50)
	d = slow.m("avg.wait_ms") - base.m("avg.wait_ms")
	expect(d <= leaked*want, "avg.wait_ms stayed put: %+.3f ms", d)

	// (b) Every averaging update of awd-dist held back: the round
	// barrier waits that much longer, the pipeline does not.
	want = ms(int64(msgDelay))
	base, err = run("awd-dist", faultConfig{})
	if err != nil {
		return err
	}
	slow, err = run("awd-dist", faultConfig{MsgDelayProb: 1, MsgDelay: msgDelay})
	if err != nil {
		return err
	}
	fmt.Printf("awd-dist, %v delay on every averaging update:\n", msgDelay)
	d = slow.m("avg.wait_ms") - base.m("avg.wait_ms")
	expect(d >= landed*want, "avg.wait_ms moved %+.3f ms (%.3f -> %.3f)", d, base.m("avg.wait_ms"), slow.m("avg.wait_ms"))
	d = slow.res.UntracedP50 - base.res.UntracedP50
	expect(d >= landed*want, "untraced step p50 (latency_ms_p50) moved %+.3f ms (%.3f -> %.3f)", d, base.res.UntracedP50, slow.res.UntracedP50)
	d = slow.m("core.run_batch_ms") - base.m("core.run_batch_ms")
	expect(d <= leaked*want, "core.run_batch_ms stayed put: %+.3f ms", d)

	if len(failures) > 0 {
		return fmt.Errorf("%d expectation(s) failed: %v", len(failures), failures)
	}
	return nil
}
