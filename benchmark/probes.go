package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// probeBudget is how long each layer probe measures. Probes run after
// the timed region, so they cost run time but never touch a gated
// number.
const probeBudget = 150 * time.Millisecond

// timeOp reports the median wall time of one fn call in ms. Fast calls
// are timed in batches of about a tenth of the budget; a call slower
// than that is its own batch, and at least three batches are taken.
func timeOp(fn func()) float64 {
	fn() // warm: the first call may build lazily
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	per := int(probeBudget / 10 / (one + 1))
	if per < 1 {
		per = 1
	}
	batches := []float64{ms(int64(one))}
	for start := time.Now(); time.Since(start) < probeBudget || len(batches) < 3; {
		b0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		batches = append(batches, ms(int64(time.Since(b0)))/float64(per))
	}
	return median(batches)
}

// allocsPerOp is the mean number of heap allocations one fn call makes.
func allocsPerOp(fn func(), n int) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

var sink float64 // keeps probe results alive

// probeKernels fills the tensor, compiled and nn metrics: the
// workload's dominant GEMM, and one micro-batch of the whole model
// through the compiled graph and through the interpreter.
func probeKernels(out *metricSet, t *task, seed int64, gemmShape [3]int, micro int) error {
	m, k, n := gemmShape[0], gemmShape[1], gemmShape[2]
	g := newGemm(seed, m, k, n)
	flop := 2 * float64(m) * float64(k) * float64(n)
	opMS := timeOp(func() { sink += float64(g.run()) })
	out.set("tensor.gemm_gflops", flop/(opMS*1e6))
	out.set("tensor.gemm_flop", flop)
	out.set("tensor.gemm_bytes", 4*float64(m*k+k*n+m*n))

	mb := firstMicro(nextBatch(t.NewGen(seed+100), t.BatchSize), micro)
	cm, err := newCompiledMicro(t.NewModel(seed), mb)
	if err != nil {
		return fmt.Errorf("compile whole model: %w", err)
	}
	out.set("compiled.micro_ms", timeOp(func() { sink += cm.run() }))
	out.set("compiled.micro_allocs", allocsPerOp(func() { sink += cm.run() }, 20))
	im := t.NewModel(seed)
	out.set("nn.interp_micro_ms", timeOp(func() { sink += interpMicro(im, mb) }))
	return nil
}

// probeWire fills the net codec, compressor and round-trip metrics, all
// on an update frame with the workload's parameter shapes.
func probeWire(ctx context.Context, out *metricSet, t *task, seed int64) error {
	deltas := seededDeltas(seed+7, t.NewModel(seed).Params())
	var elems int
	for _, d := range deltas {
		elems += d.Size()
	}
	mb := float64(4*elems) / 1e6 // payload size the MB/s figures divide by
	f := updateFrame(deltas)

	var buf []byte
	var err error
	out.set("net.encode_mb_s", mb/(timeOp(func() {
		buf, err = appendFrame(buf[:0], f)
	})/1e3))
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	out.set("net.decode_mb_s", mb/(timeOp(func() {
		_, _, err = decodeFrame(buf)
	})/1e3))
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}

	var packed *frame
	for _, codec := range []string{"q8", "topk"} {
		pk, err := newPacker(codec)
		if err != nil {
			return err
		}
		var perr error
		out.set("net.pack_mb_s."+codec, mb/(timeOp(func() {
			packed, perr = pk.pack(deltas)
		})/1e3))
		if perr != nil {
			return fmt.Errorf("pack %s: %w", codec, perr)
		}
		if codec == "q8" {
			q8 := packed
			out.set("net.unpack_mb_s", mb/(timeOp(func() {
				_, perr = unpackFrame(q8)
			})/1e3))
			if perr != nil {
				return fmt.Errorf("unpack q8: %w", perr)
			}
		}
	}

	for _, transport := range []string{"inproc", "tcp"} {
		rtt, err := probeRTT(ctx, transport, f)
		if err != nil {
			return fmt.Errorf("rtt %s: %w", transport, err)
		}
		out.set("net.rtt_ms."+transport, rtt)
	}
	return nil
}

// probeRTT times Send → peer Recv → peer Send → Recv of the frame over
// one connection of the named transport.
func probeRTT(ctx context.Context, transport string, f *frame) (float64, error) {
	ctx, cancel := context.WithCancel(ctx)
	client, srv, closeAll, err := echoPair(ctx, transport)
	if err != nil {
		cancel()
		return 0, err
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			got, err := srv.Recv(ctx)
			if err != nil {
				return
			}
			if srv.Send(ctx, got) != nil {
				return
			}
		}
	}()
	var rerr error
	rtt := timeOp(func() {
		if rerr != nil {
			return
		}
		if rerr = client.Send(ctx, f); rerr == nil {
			_, rerr = client.Recv(ctx)
		}
	})
	cancel()
	closeAll()
	<-echoed
	return rtt, rerr
}

// probeCheckpoint saves the job's state after the timed region and
// restores it into freshly built trainers, each replica to its own
// directory under buildDir.
func probeCheckpoint(ctx context.Context, out *metricSet, sut *trainSUT, seed int64) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(buildDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sub := func(i int) string { return filepath.Join(tmp, fmt.Sprint("replica-", i)) }
	t0 := time.Now()
	for i, tr := range sut.trainers {
		if err := saveCheckpoint(tr, sub(i)); err != nil {
			return fmt.Errorf("save: %w", err)
		}
	}
	out.set("checkpoint.save_ms", ms(int64(time.Since(t0))))
	var bytes int64
	err = filepath.Walk(tmp, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	out.set("checkpoint.bytes", float64(bytes))

	fresh, err := buildTrainers(ctx, sut.spec, sut.task, seed, faultConfig{})
	if err != nil {
		return err
	}
	defer fresh.close()
	t0 = time.Now()
	for i, tr := range fresh.trainers {
		if err := restoreCheckpoint(tr, sub(i)); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}
	out.set("checkpoint.restore_ms", ms(int64(time.Since(t0))))
	return nil
}
