package main

import (
	"context"
	"fmt"
)

// runRepeat is the noise calibration: each workload runs r times
// untraced at consecutive seeds' worth of identical code, and every
// end-to-end metric is printed with its median, quartiles and spread
// (interquartile distance ÷ median, the figure a bound must exceed).
func runRepeat(ctx context.Context, ws []workload, seed int64, seconds float64, r int) error {
	fmt.Printf("\n| workload | metric | unit | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|---|---|\n")
	for i := range ws {
		w := &ws[i]
		vals := make(map[string][]float64)
		for k := 0; k < r; k++ {
			res, err := runWorkload(ctx, w, seed, seconds, false, runOpts{})
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, k, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s run %d: correct=%v failed=%d %v", w.Name, k, res.Correct, res.Failed, res.Problems)
			}
			for _, d := range endToEnd {
				vals[d.Name] = append(vals[d.Name], res.Metrics[d.Name].Value)
			}
		}
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(vals[d.Name])
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %.5g | %.2f%% | %.0f%% |\n",
				w.Name, d.Name, d.Unit, q2, q1, q3, 100*spread(vals[d.Name]), 100*d.Bound)
		}
	}
	return nil
}
