package pipesim_test

import (
	"fmt"
	"math"
	"testing"

	"avgpipe/internal/cluster"
	"avgpipe/internal/comm"
	"avgpipe/internal/device"
	"avgpipe/internal/exp"
	"avgpipe/internal/pipesim"
	"avgpipe/internal/workload"
)

type goldenCase struct {
	name string
	cfg  pipesim.Config
}

// goldenCases are the Chimera configurations whose results are pinned
// bit for bit: a 4-stage synthetic fixture over a slow link at two
// activation sizes and M ∈ {2, 4, 8}, and the three paper workloads at
// the micro-batch count exp.AblationChimera simulates them with.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, actKB := range []int64{64, 512} {
		for _, m := range []int{2, 4, 8} {
			ls := make([]workload.LayerCost, 4)
			for i := range ls {
				ls[i] = workload.LayerCost{Name: "l", FwdFLOPs: 1e9, BwdFLOPs: 2e9,
					ParamBytes: 4 << 20, OutActBytes: actKB << 10, StashBytes: 2 * actKB << 10}
			}
			w := &workload.Workload{Name: "synthetic", Layers: ls, BatchSize: 8,
				SatSamples: 4, OptimStateFactor: 1, MaxPipelines: 4}
			link := comm.Link{Name: "slow", BytesPerSec: 125e6}
			c := cluster.New(1, 4, device.GPU{Name: "test", PeakFLOPs: 1e12, MemBytes: 32 << 30}, link, link)
			c.SetSatSamples(4)
			stages := make([]workload.Stage, 4)
			for s := range stages {
				stages[s] = w.MakeStage(s, s)
			}
			cases = append(cases, goldenCase{fmt.Sprintf("fixture/act=%dKB/M=%d", actKB, m), pipesim.Config{
				Workload: w, Cluster: c, Stages: stages, Micro: m, Pipelines: 1, Batches: 2}})
		}
	}
	for _, w := range []*workload.Workload{workload.GNMT(), workload.BERT(), workload.AWD()} {
		s := exp.NewSetup(w)
		m := w.BatchSize / 4
		if m%2 != 0 {
			m++
		}
		cases = append(cases, goldenCase{fmt.Sprintf("%s/M=%d", w.Name, m), pipesim.Config{
			Workload: s.W, Cluster: s.C, Stages: s.Stages, Micro: m, Pipelines: 1, Batches: 2}})
	}
	return cases
}

// goldenGPU is one GPU's pinned result: the float64 bits of Busy,
// Bubble, CommBlocked and CommTotal, and the memory breakdown.
type goldenGPU struct {
	busy, bubble, blocked, commTotal uint64
	mem                              device.MemoryBreakdown
}

type goldenResult struct {
	makespan uint64
	gpus     []goldenGPU
}

// TestChimeraGolden pins RunChimera's timing and memory, bit for bit,
// on every golden case.
func TestChimeraGolden(t *testing.T) {
	for _, c := range goldenCases() {
		want, ok := chimeraGolden[c.name]
		if !ok {
			t.Fatalf("%s: no golden entry", c.name)
		}
		r, err := pipesim.RunChimera(pipesim.ChimeraConfig{Base: c.cfg})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := math.Float64bits(r.Makespan); got != want.makespan {
			t.Errorf("%s: makespan %v, want %v", c.name, r.Makespan, math.Float64frombits(want.makespan))
		}
		if len(r.PerGPU) != len(want.gpus) {
			t.Fatalf("%s: %d GPUs, want %d", c.name, len(r.PerGPU), len(want.gpus))
		}
		for g, st := range r.PerGPU {
			w := want.gpus[g]
			for _, f := range []struct {
				name      string
				got, want uint64
			}{
				{"Busy", math.Float64bits(st.Busy), w.busy},
				{"Bubble", math.Float64bits(st.Bubble), w.bubble},
				{"CommBlocked", math.Float64bits(st.CommBlocked), w.blocked},
				{"CommTotal", math.Float64bits(st.CommTotal), w.commTotal},
			} {
				if f.got != f.want {
					t.Errorf("%s: GPU %d %s %v, want %v", c.name, g, f.name,
						math.Float64frombits(f.got), math.Float64frombits(f.want))
				}
			}
			if st.Memory != w.mem {
				t.Errorf("%s: GPU %d memory %+v, want %+v", c.name, g, st.Memory, w.mem)
			}
		}
	}
}

// chimeraGolden was recorded from the dedicated Chimera event loop that
// RunChimera once had. Two corrections moved entries since, each noted
// at its entry. Memory differs where a direction's M/2 micro-batches
// are fewer than K: the schedule's own occupancy, min(K−s, M/2),
// replaced the fixed K−s stash. AWD's timing differs because the
// reversed pipeline's transfers are now priced by the stage they carry.
var chimeraGolden = map[string]goldenResult{
	// Memory differs from the old Chimera loop: M/2 = 1 < K = 4: each direction's 1F1B stashes min(K−s, M/2) = 1
	// micro-batch per stage, not the K−s the old formula assumed.
	"fixture/act=64KB/M=2": {makespan: 0x3fd0fd4088057286, gpus: []goldenGPU{
		{0x3fb26e978d4fdf3b, 0x3fc7b0548ae08805, 0x3f812e0be826d68c, 0x3f812e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 1048576, Buffers: 1048576}},
		{0x3fb26e978d4fdf3b, 0x3fc6e22bfbfeb5f6, 0x3f8e1094d643f779, 0x3f912e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 1048576, Buffers: 1048576}},
		{0x3fb26e978d4fdf3b, 0x3fc6e22bfbfeb5f7, 0x3f8e1094d643f775, 0x3f912e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 1048576, Buffers: 1048576}},
		{0x3fb26e978d4fdf3b, 0x3fc7f50cba81235e, 0x3f79c511dc3a41cc, 0x3f812e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 1048576, Buffers: 1048576}},
	}},
	// Memory differs from the old Chimera loop: M/2 = 2 < K = 4: stage s stashes min(K−s, 2), so GPUs 0 and 3
	// (stages 0 and 3) hold 2+1 micro-batches and GPUs 1 and 2 hold 2+2.
	"fixture/act=64KB/M=4": {makespan: 0x3fd4c4b435b859e4, gpus: []goldenGPU{
		{0x3fb89374bc6a7efc, 0x3fcc71857e59a239, 0x3f79c511dc3a41e8, 0x3f812e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 786432, Buffers: 524288}},
		{0x3fb89374bc6a7efc, 0x3fcb8100d7a7827d, 0x3f8bead3593f1cbc, 0x3f912e0be826d696, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 1048576, Buffers: 524288}},
		{0x3fb89374bc6a7efc, 0x3fcbc5b907481dd7, 0x3f879f505f356719, 0x3f912e0be826d696, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 1048576, Buffers: 524288}},
		{0x3fb89374bc6a7efc, 0x3fcc4f296689548d, 0x3f7e1094d643f78e, 0x3f812e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 786432, Buffers: 524288}},
	}},
	"fixture/act=64KB/M=8": {makespan: 0x3fd3cc6447275be8, gpus: []goldenGPU{
		{0x3fc26e978d4fdf3e, 0x3fc45c08721d0680, 0x3f79c511dc3a4214, 0x3f812e0be826d696, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 655360, Buffers: 262144}},
		{0x3fc26e978d4fdf3d, 0x3fc44ada6634dfab, 0x3f7bead3593f1cca, 0x3f912e0be826d694, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 655360, Buffers: 262144}},
		{0x3fc26e978d4fdf3e, 0x3fc44ada6634dfac, 0x3f7bead3593f1cc7, 0x3f912e0be826d694, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 655360, Buffers: 262144}},
		{0x3fc26e978d4fdf3d, 0x3fc46d367e052d58, 0x3f779f505f356712, 0x3f812e0be826d696, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 655360, Buffers: 262144}},
	}},
	// Memory differs from the old Chimera loop as in act=64KB/M=2.
	"fixture/act=512KB/M=2": {makespan: 0x3fdfffd596529ae1, gpus: []goldenGPU{
		{0x3fb26e978d4fdf3b, 0x3fd718acb8f4ed6c, 0x3fb12e0be826d694, 0x3fb12e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 8388608, Buffers: 8388608}},
		{0x3fb26e978d4fdf3b, 0x3fd391c564ce8bbf, 0x3fbf49a938c05d48, 0x3fc12e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 8388608, Buffers: 8388608}},
		{0x3fb26e978d4fdf3b, 0x3fd456610ab1dfb8, 0x3fbc373aa1330d66, 0x3fc12e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 8388608, Buffers: 8388608}},
		{0x3fb26e978d4fdf3b, 0x3fd7dd485ed84165, 0x3fac373aa1330d63, 0x3fb12e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 8388608, Buffers: 8388608}},
	}},
	// Memory differs from the old Chimera loop as in act=64KB/M=4.
	"fixture/act=512KB/M=4": {makespan: 0x3fe1b3eb0fbf20fc, gpus: []goldenGPU{
		{0x3fb89374bc6a7efc, 0x3fda0a56b4dc59fd, 0x3fa9c511dc3a41e6, 0x3fb12e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 6291456, Buffers: 4194304}},
		{0x3fb89374bc6a7efc, 0x3fd6c4f89801bef6, 0x3fb9f80161878d0c, 0x3fc12e0be826d696, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 8388608, Buffers: 4194304}},
		{0x3fb89374bc6a7efc, 0x3fd754c6e7ec9f10, 0x3fb7b8c821dc0ca4, 0x3fc12e0be826d696, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 8388608, Buffers: 4194304}},
		{0x3fb89374bc6a7efc, 0x3fd97a8864f179e2, 0x3fae43845b9142b0, 0x3fb12e0be826d695, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 6291456, Buffers: 4194304}},
	}},
	"fixture/act=512KB/M=8": {makespan: 0x3fdc5332125d0b05, gpus: []goldenGPU{
		{0x3fc26e978d4fdf3e, 0x3fd00a669c7d5fe3, 0x3fa88bfd79bddc0f, 0x3fb12e0be826d696, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 5242880, Buffers: 2097152}},
		{0x3fc26e978d4fdf3d, 0x3fcea08d8fdc3cbe, 0x3fae5cfc1e37e82e, 0x3fc12e0be826d694, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 5242880, Buffers: 2097152}},
		{0x3fc26e978d4fdf3e, 0x3fcddbf1e9f8e8c7, 0x3fb0b7b55ae29c07, 0x3fc12e0be826d694, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 5242880, Buffers: 2097152}},
		{0x3fc26e978d4fdf3d, 0x3fcf3d17c11a6fa2, 0x3fabead3593f1ca2, 0x3fb12e0be826d696, device.MemoryBreakdown{Weights: 8388608, OptimizerState: 8388608, Gradients: 8388608, Activations: 5242880, Buffers: 2097152}},
	}},
	"GNMT/M=32": {makespan: 0x3ff14e488124e2fb, gpus: []goldenGPU{
		{0x3fd31095495ee0e1, 0x3fe8e98d4c6c2fd5, 0x3f755c889712d428, 0x3f76c91a3abec2c5, device.MemoryBreakdown{Weights: 295714816, OptimizerState: 591429632, Gradients: 295714816, Activations: 391372800, Buffers: 20838400}},
		{0x3fd7315cdfce0818, 0x3fdaca95f2bd6ec8, 0x3fd33d2f32081518, 0x3fdb6784c97de2c9, device.MemoryBreakdown{Weights: 100712448, OptimizerState: 201424896, Gradients: 100712448, Activations: 412876800, Buffers: 3276800}},
		{0x3fdeec7bd512b573, 0x3fd96144ae23cd09, 0x3fc9d6c302ba12dd, 0x3fdb6784c97de2c8, device.MemoryBreakdown{Weights: 134283264, OptimizerState: 268566528, Gradients: 134283264, Activations: 642252800, Buffers: 3276800}},
		{0x3fdeec7bd512b573, 0x3fdc1d82f54ccfa4, 0x3fc45e4674680da8, 0x3fdb6784c97de2c8, device.MemoryBreakdown{Weights: 134283264, OptimizerState: 268566528, Gradients: 134283264, Activations: 642252800, Buffers: 3276800}},
		{0x3fd7315cdfce0817, 0x3fdce5b6c4f6e03c, 0x3fd1220e5fcea3a6, 0x3fdb6784c97de2c9, device.MemoryBreakdown{Weights: 100712448, OptimizerState: 201424896, Gradients: 100712448, Activations: 412876800, Buffers: 3276800}},
		{0x3fd31095495ee0e1, 0x3fe8e98d4c6c2fd7, 0x3f755c889712d42c, 0x3f76c91a3abec2c5, device.MemoryBreakdown{Weights: 295714816, OptimizerState: 591429632, Gradients: 295714816, Activations: 391372800, Buffers: 20838400}},
	}},
	// Memory differs from the old Chimera loop: M/2 = 4 < K = 6: stages 0 and 1 stash min(K−s, 4) = 4, not 6 and
	// 5, so GPUs 0, 1, 4 and 5 (each hosting stage 0 or 1) hold less.
	"BERT/M=8": {makespan: 0x40144cf22c57bb2a, gpus: []goldenGPU{
		{0x3ff20a371a0d8a89, 0x400f8a5a834ba014, 0x3f74dc90ba21f4c0, 0x3f7bd0c0f82d4dc1, device.MemoryBreakdown{Weights: 529858560, OptimizerState: 1059717120, Gradients: 529858560, Activations: 10871652352, Buffers: 8421376}},
		{0x3ff209f2e6f59481, 0x400bcd10abdc8a84, 0x3fde3ed1cac10c80, 0x3fe16c3b22d1f840, device.MemoryBreakdown{Weights: 402784256, OptimizerState: 805568512, Gradients: 402784256, Activations: 12884901888, Buffers: 16777216}},
		{0x3ff209f2e6f59481, 0x400cbee1f2bd6dd6, 0x3fd6b04793b9f1ed, 0x3fe16c3b22d1f840, device.MemoryBreakdown{Weights: 402784256, OptimizerState: 805568512, Gradients: 402784256, Activations: 15032385536, Buffers: 16777216}},
		{0x3ff209f2e6f59481, 0x400cdb2321bc1be0, 0x3fd5ce3e1bc4819c, 0x3fe16c3b22d1f840, device.MemoryBreakdown{Weights: 402784256, OptimizerState: 805568512, Gradients: 402784256, Activations: 15032385536, Buffers: 16777216}},
		{0x3ff209f2e6f59481, 0x400c12c19867d264, 0x3fdc114a6666cd78, 0x3fe16c3b22d1f840, device.MemoryBreakdown{Weights: 402784256, OptimizerState: 805568512, Gradients: 402784256, Activations: 12884901888, Buffers: 16777216}},
		{0x3ff20a371a0d8a89, 0x400f897bfd43dea8, 0x3f76999cc9a4c9e0, 0x3f7bd0c0f82d4dc1, device.MemoryBreakdown{Weights: 529858560, OptimizerState: 1059717120, Gradients: 529858560, Activations: 10871652352, Buffers: 8421376}},
	}},
	// Timing differs from the old Chimera loop: AWD's stages differ in
	// output size, and the old loop priced the reversed pipeline's
	// transfers by the link's index instead of by the stage whose output
	// crosses it (the up pipeline's stage s crosses link K−2−s).
	"AWD/M=10": {makespan: 0x3fe33762d3f0e996, gpus: []goldenGPU{
		{0x3fb86994185058dd, 0x3fe01d5728dbc158, 0x3f59b250163a48e0, 0x3f5e14b3405ebfd5, device.MemoryBreakdown{Weights: 41926400, OptimizerState: 41926400, Gradients: 41926400, Activations: 135744000, Buffers: 23296000}},
		{0x3fd0a95c853c1483, 0x3fcd5fb99718936c, 0x3fbc56315c65d3da, 0x3fcabdc25854aad1, device.MemoryBreakdown{Weights: 70876800, OptimizerState: 70876800, Gradients: 70876800, Activations: 340480000, Buffers: 5152000}},
		{0x3fd0a95c853c1482, 0x3fc9de29df800b4a, 0x3fc1aca865cb720e, 0x3fcabdc25854aad1, device.MemoryBreakdown{Weights: 70876800, OptimizerState: 70876800, Gradients: 70876800, Activations: 340480000, Buffers: 5152000}},
		{0x3fb86994185058de, 0x3fe01d5728dbc158, 0x3f59b250163a48f0, 0x3f5e14b3405ebfd5, device.MemoryBreakdown{Weights: 41926400, OptimizerState: 41926400, Gradients: 41926400, Activations: 135744000, Buffers: 23296000}},
	}},
}
