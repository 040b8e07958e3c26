package main

import (
	"sort"
	"time"
)

// The machine this runs on is shared, and its neighbours slow both
// cores down by a fifth to a half for seconds to minutes at a time.
// Whole-run means and medians follow those waves; the best second of a
// run mostly does not. So the timed region is cut into one-second
// windows, every end-to-end figure is computed per window, and the run
// reports each metric's best window. The whole-run figures are printed
// next to them.
const window = time.Second

// minWindowOps is the fewest ops a window needs to be counted: fewer
// give no stable median.
const minWindowOps = 10

// cpuMark is the process CPU time read at one window boundary.
type cpuMark struct {
	at  time.Duration // since the sampler started
	cpu time.Duration
}

// cpuSampler reads the process CPU time at every window boundary while
// the timed region runs. Boundaries are where the sampler actually
// woke, so a late wake-up lengthens one window instead of skewing two.
type cpuSampler struct {
	start time.Time
	marks []cpuMark
	stop  chan struct{}
	done  chan struct{}
}

func startCPUSampler() *cpuSampler {
	s := &cpuSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	s.mark()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.mark()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *cpuSampler) mark() {
	s.marks = append(s.marks, cpuMark{at: time.Since(s.start), cpu: cpuTime()})
}

// finish stops the sampler and returns its marks, the last one taken
// now.
func (s *cpuSampler) finish() []cpuMark {
	close(s.stop)
	<-s.done
	s.mark()
	return s.marks
}

// opSample is one completed op: when it ended (since the sampler
// started) and how long it took.
type opSample struct {
	end time.Duration
	ms  float64
}

// windowStat is one window's end-to-end figures.
type windowStat struct {
	ops        int
	opsPerS    float64
	p50MS      float64
	cpuMSPerOp float64
}

// windowStats assigns every op to the window it ended in and computes
// each window's figures; windows with fewer than minWindowOps ops, or
// shorter than half a window, are left out.
func windowStats(marks []cpuMark, ops []opSample) []windowStat {
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	var out []windowStat
	i := 0
	for w := 0; w+1 < len(marks); w++ {
		lo, hi := marks[w], marks[w+1]
		for i < len(ops) && ops[i].end < lo.at {
			i++
		}
		var durs []float64
		for ; i < len(ops) && ops[i].end < hi.at; i++ {
			durs = append(durs, ops[i].ms)
		}
		wall := hi.at - lo.at
		if len(durs) < minWindowOps || wall < window/2 {
			continue
		}
		out = append(out, windowStat{
			ops:        len(durs),
			opsPerS:    float64(len(durs)) / wall.Seconds(),
			p50MS:      median(durs),
			cpuMSPerOp: ms(int64(hi.cpu-lo.cpu)) / float64(len(durs)),
		})
	}
	return out
}

// bestWindows picks each figure's best window: the highest throughput,
// the lowest median op time, the lowest CPU per op.
func bestWindows(ws []windowStat) (opsPerS, p50MS, cpuMSPerOp float64) {
	for i, w := range ws {
		if i == 0 || w.opsPerS > opsPerS {
			opsPerS = w.opsPerS
		}
		if i == 0 || w.p50MS < p50MS {
			p50MS = w.p50MS
		}
		if i == 0 || w.cpuMSPerOp < cpuMSPerOp {
			cpuMSPerOp = w.cpuMSPerOp
		}
	}
	return opsPerS, p50MS, cpuMSPerOp
}
