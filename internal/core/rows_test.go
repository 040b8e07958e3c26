package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"avgpipe/internal/data"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/optim"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// wideTask is the language-model network behind an embedding of rows
// rows, fed tokens spread skewed over them, so a batch writes a few
// percent of the table: the shape row-tracking is for. adam swaps the
// task's plain SGD for Adam, whose step is dense.
func wideTask(rows int, adam bool) *workload.Task {
	const states, dim, seqLen = 16, 16, 10
	base := workload.LangModelTask()
	t := *base
	t.Name = fmt.Sprintf("wide%d", rows)
	t.NewModel = func(seed int64) *nn.Sequential {
		g := tensor.NewRNG(seed)
		l1 := nn.NewLSTM(g, dim, dim, seqLen)
		l1.RecurrentDropP = 0.1
		return nn.NewSequential(nn.NewEmbedding(g, rows, dim), l1, nn.NewLSTM(g, dim, dim, seqLen),
			nn.NewLinear(g, dim, states))
	}
	t.NewGen = func(seed int64) data.Generator {
		return &wideGen{Generator: base.NewGen(seed), r: rand.New(rand.NewSource(seed)), buckets: rows / states}
	}
	t.LR = 1
	if adam {
		t.Name += "-adam"
		t.UseSGD, t.LR = false, 1e-3
	}
	return &t
}

// wideGen moves each token of the inner stream into one of buckets
// copies of its vocabulary, low buckets far likelier than high ones.
type wideGen struct {
	data.Generator
	r       *rand.Rand
	buckets int
}

func (g *wideGen) NextBatch(size int) *data.Batch {
	b := g.Generator.NextBatch(size)
	x := tensor.New(b.X.Shape()...)
	for i, v := range b.X.Data() {
		u := g.r.Float64()
		x.Data()[i] = v + float32(16*int(u*u*u*u*float64(g.buckets)))
	}
	return &data.Batch{X: x, Targets: b.Targets, Size: b.Size}
}

// untracked is task with every embedding table replaced by a parameter
// with the same weights and no row record: the dense path throughout.
func untracked(task *workload.Task) *workload.Task {
	t := *task
	t.Name += "-dense"
	t.NewModel = func(seed int64) *nn.Sequential {
		m := task.NewModel(seed)
		for _, l := range m.Layers {
			if e, ok := l.(*nn.Embedding); ok {
				e.Table = nn.NewParam(e.Table.Name, e.Table.W)
			}
		}
		return m
	}
	return &t
}

// trace is what one replica's run leaves to compare: per round, its
// loss, its reference copy, a hash of every snapshot, and the update
// frames of the round it applied, in pipeline order.
type trace struct {
	mu     sync.Mutex
	losses []float64
	refs   [][]*tensor.Tensor
	snaps  [][]uint64       // [round][pipeline·param]
	frames [][]*tensor.Runs // [round][pipeline·param]
}

func (tr *trace) watch(a *Averager) {
	a.observe = func(c closure[[]*tensor.Runs]) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for len(tr.frames) <= c.round {
			tr.frames = append(tr.frames, nil)
		}
		for _, rs := range c.payloads {
			tr.frames[c.round] = append(tr.frames[c.round], rs...)
		}
	}
}

func (tr *trace) step(t *Trainer) error {
	loss, err := t.StepContext(context.Background())
	tr.losses = append(tr.losses, loss)
	tr.refs = append(tr.refs, t.avg.Reference())
	var hs []uint64
	var b [4]byte
	for _, snap := range t.avg.snapshots {
		for _, x := range snap {
			h := fnv.New64a()
			for _, v := range x.Data() {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
			hs = append(hs, h.Sum64())
		}
	}
	tr.snaps = append(tr.snaps, hs)
	return err
}

// requireSameTrace fails unless got and want agree bit for bit: every
// loss, every reference coefficient, and every frame's runs.
func requireSameTrace(t *testing.T, what string, got, want *trace) {
	t.Helper()
	if len(got.losses) != len(want.losses) || len(got.frames) != len(want.frames) {
		t.Fatalf("%s: %d rounds / %d frames, dense path %d / %d", what,
			len(got.losses), len(got.frames), len(want.losses), len(want.frames))
	}
	for r, w := range want.losses {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("%s round %d: loss %v", what, r, w)
		}
		if math.Float64bits(got.losses[r]) != math.Float64bits(w) {
			t.Fatalf("%s round %d: loss %.17g, dense path %.17g", what, r, got.losses[r], w)
		}
		for i, ref := range want.refs[r] {
			if j, ok := sameTensorBits(got.refs[r][i], ref); !ok {
				t.Fatalf("%s round %d: reference %d coefficient %d differs", what, r, i, j)
			}
		}
		if !slices.Equal(got.snaps[r], want.snaps[r]) {
			t.Fatalf("%s round %d: snapshots differ", what, r)
		}
		if len(got.frames[r]) != len(want.frames[r]) {
			t.Fatalf("%s round %d: %d deltas, dense path %d", what, r, len(got.frames[r]), len(want.frames[r]))
		}
		for i, d := range want.frames[r] {
			requireSameRuns(t, fmt.Sprintf("%s round %d delta %d", what, r, i), got.frames[r][i], d)
		}
	}
}

func sameTensorBits(a, b *tensor.Tensor) (int, bool) {
	x, y := a.Data(), b.Data()
	for i := range y {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return i, false
		}
	}
	return 0, len(x) == len(y)
}

func requireSameRuns(t *testing.T, what string, got, want *tensor.Runs) {
	t.Helper()
	if !slices.Equal(got.Spans, want.Spans) {
		t.Fatalf("%s: %d spans, dense path %d (first %v vs %v)", what, len(got.Spans), len(want.Spans),
			got.Spans[:min(3, len(got.Spans))], want.Spans[:min(3, len(want.Spans))])
	}
	for i, v := range want.Vals {
		if math.Float32bits(got.Vals[i]) != math.Float32bits(v) {
			t.Fatalf("%s: value %d = %v, dense path %v", what, i, got.Vals[i], v)
		}
	}
}

// recordRounds is long enough for rows to settle: at α = 1/2 an
// untouched row's dilution reaches its fixed point within about 40
// calls.
const recordRounds = 60

// TestRowRecordMatchesDense is the equivalence gate for row-tracked
// parameters: two same-seed trainers, one of them with its embedding
// records stripped, must agree bit for bit over recordRounds rounds —
// losses, references, snapshots, and every update frame's runs — in
// process with N=2. The cases: a wide SGD task (the sparse clip, step,
// zero-grad and delta, and the row-settled Dilute); a wide Adam task
// (sparse clip and zero-grad, dense step, delta and Dilute); the SGD task
// with a snapshot install mid-run (a new generation: Dilute must reseed);
// and the SGD task with −0s planted in W and then installed as the
// reference, which sets refMoves.
func TestRowRecordMatchesDense(t *testing.T) {
	sgd, adam := wideTask(4096, false), wideTask(4096, true)
	cases := []struct {
		name string
		task *workload.Task
		mid  func(tr *Trainer) // run after round recordRounds/2
	}{
		{sgd.Name, sgd, nil},
		{adam.Name, adam, nil},
		{sgd.Name + "-install", sgd, func(tr *Trainer) { tr.avg.SetReference(tr.pipelines[1].Params()) }},
		{sgd.Name + "-negzero", sgd, func(tr *Trainer) {
			for _, pl := range tr.pipelines {
				for _, p := range pl.Params() {
					if p.W.Dim(0) == 4096 {
						for _, c := range []int{4000*16 + 3, 4090*16 + 7, 4095*16 + 15} {
							p.W.Data()[c] = float32(math.Copysign(0, -1))
						}
						p.MarkDense()
					}
				}
			}
			tr.avg.SetReference(tr.pipelines[0].Params())
			if !slices.Contains(tr.avg.refMoves, true) {
				t.Fatal("a reference holding −0 did not set refMoves")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var traces [2]*trace
			for v, tk := range []*workload.Task{c.task, untracked(c.task)} {
				tr, err := NewTrainer(TrainerConfig{Task: tk, Pipelines: 2, Micro: 2, StageCount: 2,
					Seed: 5, ClipNorm: 0.05, Obs: obs.NewRegistry()})
				if err != nil {
					t.Fatal(err)
				}
				traces[v] = &trace{}
				traces[v].watch(tr.avg)
				for r := 0; r < recordRounds; r++ {
					if err := traces[v].step(tr); err != nil {
						t.Fatal(err)
					}
					if r == recordRounds/2 && c.mid != nil {
						c.mid(tr)
					}
				}
				tr.Close()
				// The tracked SGD twin must have skipped settled rows, or
				// this test compares the dense path with itself.
				if skipped := tr.avg.rowsSettled.Value(); v == 0 && (skipped > 0) != c.task.UseSGD {
					t.Fatalf("tracked twin skipped %v rows (SGD %v)", skipped, c.task.UseSGD)
				}
			}
			requireSameTrace(t, c.name, traces[0], traces[1])
		})
	}
}

// TestRowRecordMatchesDenseDist is TestRowRecordMatchesDense for a
// 2-replica dist job over TCP: each replica's trace, peer frames
// included, matches its dense twin's.
func TestRowRecordMatchesDenseDist(t *testing.T) {
	task := wideTask(4096, false)
	const n = 2
	var traces [2][n]*trace
	for v, tk := range []*workload.Task{task, untracked(task)} {
		meshes := formTestMeshes(t, true, netx.FullMesh{}, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for p := range meshes {
			traces[v][p] = &trace{}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				tr, err := NewTrainer(TrainerConfig{Task: tk, Pipelines: n, Micro: 1, StageCount: 1,
					Seed: 9, ClipNorm: 0.05, Obs: obs.NewRegistry(),
					Dist: &DistConfig{ReplicaID: p, Mesh: meshes[p]}})
				if err != nil {
					errs[p] = err
					return
				}
				defer tr.Close()
				traces[v][p].watch(tr.avg)
				for r := 0; r < recordRounds && errs[p] == nil; r++ {
					errs[p] = traces[v][p].step(tr)
				}
			}(p)
		}
		wg.Wait()
		for p, err := range errs {
			if err != nil {
				t.Fatalf("replica %d: %v", p, err)
			}
		}
	}
	for p := 0; p < n; p++ {
		requireSameTrace(t, fmt.Sprintf("replica %d", p), traces[0][p], traces[1][p])
	}
}

// TestGradZeroOutsideRecord: after a batch, on the compiled pipeline
// (K∈{1,2}, M∈{1,4}) and on the interpreter, every row-tracked gradient
// is +0 outside its recorded rows, for every task — the invariant that
// lets clip, step and zero-grad skip them.
func TestGradZeroOutsideRecord(t *testing.T) {
	tasks := append(workload.Tasks(), dropoutTask(), wideTask(1024, false))
	check := func(t *testing.T, ps []*nn.Param) {
		t.Helper()
		tracked := 0
		for _, p := range ps {
			rows, ok := p.GradRows()
			if !ok {
				continue
			}
			tracked++
			width := p.G.Dim(1)
			for i, v := range p.G.Data() {
				if _, in := slices.BinarySearch(rows, i/width); !in && math.Float32bits(v) != 0 {
					t.Fatalf("%s: G[%d] = %v in unrecorded row %d", p.Name, i, v, i/width)
				}
			}
		}
		if tracked == 0 {
			t.Fatal("no row-tracked parameter has a record")
		}
	}
	for _, task := range tasks {
		for _, k := range []int{1, 2} {
			for _, m := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/K%d/M%d", task.Name, k, m), func(t *testing.T) {
					pl, err := NewPipelineWith(task.NewModel(3), PipelineConfig{Stages: k})
					if err != nil {
						t.Fatal(err)
					}
					gen, opt := task.NewGen(4), newOptimizer(task)
					for round := 0; round < 3; round++ {
						runBatch(t, pl, gen.NextBatch(task.BatchSize), m)
						check(t, pl.Params())
						optim.ClipGradNorm(pl.Params(), 0.5)
						opt.Step(pl.Params())
						nn.ZeroGrads(pl.Params())
					}
				})
			}
		}
		t.Run(task.Name+"/interpreter", func(t *testing.T) {
			model, gen := task.NewModel(3), task.NewGen(4)
			for round := 0; round < 3; round++ {
				interpretBatch(model, gen.NextBatch(task.BatchSize), 4)
				check(t, model.Params())
				nn.ZeroGrads(model.Params())
			}
		})
	}
}

// rowTwin is one side of a hand-driven averaging loop over a lone
// embedding table: the row-tracked table, or its untracked twin.
type rowTwin struct {
	ps  []*nn.Param
	a   *Averager
	opt *optim.SGD
}

func newRowTwins(t *testing.T) [2]*rowTwin {
	t.Helper()
	const rows, dim = 300, 8
	tracked := nn.NewEmbedding(tensor.NewRNG(3), rows, dim).Table
	plain := nn.NewParam(tracked.Name, tracked.W.Clone())
	var tw [2]*rowTwin
	for v, p := range []*nn.Param{tracked, plain} {
		ps := []*nn.Param{p}
		tw[v] = &rowTwin{ps: ps, a: NewAveragerObs(1, ps, obs.NewRegistry()), opt: optim.NewSGD(0.5)}
		t.Cleanup(tw[v].a.Close)
	}
	return tw
}

// backward scatters a gradient into rows idx, clips, steps and zeroes,
// as the trainer's local step does.
func (tw *rowTwin) backward(idx []int, seed int64) {
	src := tensor.NewRNG(seed).Normal(0, 1, len(idx), tw.ps[0].W.Dim(1))
	tw.ps[0].ScatterAddGrad(idx, src)
	optim.ClipGradNorm(tw.ps, 0.5)
	tw.opt.Step(tw.ps)
	nn.ZeroGrads(tw.ps)
}

// frame is the update SubmitContext would send for round.
func (tw *rowTwin) frame(t *testing.T, round int) []*tensor.Runs {
	t.Helper()
	f, err := tw.a.updateFrame(0, round, tw.ps)
	if err != nil {
		t.Fatal(err)
	}
	return f.Runs
}

// submit sends round's update, waits for it, and dilutes.
func (tw *rowTwin) submit(t *testing.T, round int) {
	t.Helper()
	ctx := context.Background()
	if err := tw.a.SubmitContext(ctx, 0, round, tw.ps); err != nil {
		t.Fatal(err)
	}
	if err := tw.a.WaitRound(ctx, round); err != nil {
		t.Fatal(err)
	}
	tw.a.Dilute(0, tw.ps)
}

// TestRowRecordNonFiniteFallsBack plants an Inf, and separately a NaN,
// in a row no step writes, before a Dilute. x − x is not +0 for them,
// so the next frame must carry that row as the dense path does.
func TestRowRecordNonFiniteFallsBack(t *testing.T) {
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.NaN())} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			tw := newRowTwins(t)
			var frames [2][]*tensor.Runs
			for v, side := range tw {
				side.backward([]int{4, 9, 4, 200}, 1)
				side.submit(t, 0)
				side.backward([]int{7, 8}, 2)
				if v == 0 {
					if _, ok := side.ps[0].SteppedRows(side.a.snapshots[0][0], side.a.snapGen.Load()); !ok {
						t.Fatal("a clean round did not prove its rows")
					}
				}
				side.submit(t, 1)
				side.ps[0].W.Data()[50*8+3] = bad // row 50: no step writes it
				side.a.Dilute(0, side.ps)
				side.backward([]int{7, 100}, 3)
				frames[v] = side.frame(t, 2)
			}
			requireSameRuns(t, "frame after the plant", frames[0][0], frames[1][0])
			if len(frames[1][0].Vals) == 0 {
				t.Fatal("the dense frame is empty")
			}
		})
	}
}

// TestRowRecordRefMoves: installing a reference that holds a −0 sets
// refMoves, and the first round applied after it adds +0 to every gap,
// turning that −0 into +0 without a span covering it. A Dilute that ran
// before the round — the AsyncDilute order — settled the row holding the
// −0, so the round must count as touching every row: the next Dilute
// turns W's −0 into +0 there, as the dense path does.
func TestRowRecordRefMoves(t *testing.T) {
	const c = 50*8 + 3 // row 50: no step writes it
	tw := newRowTwins(t)
	ctx := context.Background()
	var ws, snaps [2]*tensor.Tensor
	for v, side := range tw {
		side.ps[0].W.Data()[c] = float32(math.Copysign(0, -1))
		side.ps[0].MarkDense()
		nn.ZeroGrads(side.ps) // MarkDense covers G too, until a zero-grad
		side.a.SetReference(side.ps)
		side.a.Dilute(0, side.ps)
		side.backward([]int{1, 2}, 1)
		if err := side.a.SubmitContext(ctx, 0, 0, side.ps); err != nil {
			t.Fatal(err)
		}
		if err := side.a.WaitRound(ctx, 0); err != nil {
			t.Fatal(err)
		}
		side.a.Dilute(0, side.ps)
		ws[v], snaps[v] = side.ps[0].W.Clone(), side.a.snapshots[0][0].Clone()
	}
	if math.Float32bits(ws[1].Data()[c]) != 0 {
		t.Fatalf("dense path: W[%d] = %v, want +0", c, ws[1].Data()[c])
	}
	for _, p := range [][2]*tensor.Tensor{ws, snaps} {
		if j, ok := sameTensorBits(p[0], p[1]); !ok {
			t.Fatalf("coefficient %d = %v, dense path %v", j, p[0].Data()[j], p[1].Data()[j])
		}
	}
}

// TestRowRecordSnapshotInstall: a snapshot install between Dilute and
// SubmitContext — a reference installed with SetReference, a replica
// reseeded with SeedReplica — leaves W differing from the new snapshot
// in rows no step wrote, so the next frame must be the dense one.
func TestRowRecordSnapshotInstall(t *testing.T) {
	installs := map[string]func(a *Averager, other []*nn.Param){
		"SetReference": func(a *Averager, other []*nn.Param) { a.SetReference(other) },
		"SeedReplica":  func(a *Averager, other []*nn.Param) { a.SeedReplica(0, other) },
	}
	for name, install := range installs {
		t.Run(name, func(t *testing.T) {
			tw := newRowTwins(t)
			other := []*nn.Param{nn.NewEmbedding(tensor.NewRNG(4), 300, 8).Table}
			var frames [2][]*tensor.Runs
			for v, side := range tw {
				side.backward([]int{1, 2, 3}, 1)
				side.submit(t, 0)
				side.backward([]int{5, 299}, 2)
				install(side.a, other)
				frames[v] = side.frame(t, 1)
			}
			requireSameRuns(t, "frame after the install", frames[0][0], frames[1][0])
		})
	}
}

// TestStaleTrainerRowRecord: StaleTrainer copies a shadow model's
// gradient into the model's G wholesale, a write the record did not see;
// the trainer must still match its dense twin bit for bit.
func TestStaleTrainerRowRecord(t *testing.T) {
	task := wideTask(1024, false)
	tracked, dense := NewStaleTrainer(task, 2, 1), NewStaleTrainer(untracked(task), 2, 1)
	for r := 0; r < 5; r++ {
		if g, w := tracked.Step(), dense.Step(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("step %d: loss %.17g, dense path %.17g", r, g, w)
		}
	}
	for i, p := range dense.model.Params() {
		if j, ok := sameTensorBits(tracked.model.Params()[i].W, p.W); !ok {
			t.Fatalf("%s: coefficient %d differs", p.Name, j)
		}
	}
}

// TestApplyRoundTouchesRows: applyRound records, in each pipeline's
// row-settle record, the ref rows a round's runs cover — and every row
// when refMoves is set, because the round then adds +0 to the gaps too.
func TestApplyRoundTouchesRows(t *testing.T) {
	for _, moves := range []bool{false, true} {
		ref := []*tensor.Tensor{tensor.New(10, 4)}
		d := tensor.New(10, 4)
		for c := 5; c < 10; c++ {
			d.Data()[c] = 1
		}
		s := newRowSettle(10)
		applyRound(ref, []bool{moves}, [][]*tensor.Runs{{tensor.RunsOf(d)}}, [][]*rowSettle{{nil}, {s}})
		if got := s.touched.Ascending(); s.all != moves || !moves && !slices.Equal(got, []int{1, 2}) {
			t.Fatalf("moves %v: touched %v, all %v", moves, got, s.all)
		}
	}
}
