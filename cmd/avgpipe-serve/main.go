// Command avgpipe-serve puts the averaged model in front of traffic: it
// loads the elastic averager's reference model from a checkpoint
// directory and serves batched inference over HTTP through the compiled
// eval-mode op graph.
//
// Usage:
//
//	avgpipe-train -task translation -checkpoint-dir ckpt -rounds 100
//	avgpipe-serve -task translation -checkpoint-dir ckpt -addr :8080
//	curl -s localhost:8080/v1/predict -d '{"tokens":[1,2,3,4,5]}'
//
// With -watch the server keeps polling the checkpoint directory's
// commit marker and hot-swaps whenever a training job writes a newer
// round. With -snapshot-listen it additionally accepts pushed snapshot
// frames from a live `avgpipe-train -publish` run — fresh averaged
// weights arrive over the wire codec and swap in with zero downtime;
// requests in flight finish on the version they started on.
//
// Batching is work-conserving: a request that finds one of the -workers
// model replicas idle runs at once; while every replica is busy,
// requests queue, and the next replica to come free takes up to
// -max-batch of them as one batch. No timer holds a request back.
// /metrics exposes per-request latency and
// batch-occupancy histograms; /healthz and /readyz serve probes
// (readiness flips once the first model version is installed).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	stdnet "net"
	"net/http"
	"time"

	"avgpipe"
)

func main() {
	var (
		taskName      = flag.String("task", "translation", "translation, classification, or langmodel")
		addr          = flag.String("addr", ":8080", "HTTP address for /v1/predict, /metrics, and probes")
		checkpointDir = flag.String("checkpoint-dir", "", "load the reference model from this checkpoint directory")
		watch         = flag.Bool("watch", false, "keep polling -checkpoint-dir and hot-swap newer rounds")
		watchEvery    = flag.Duration("watch-every", 200*time.Millisecond, "checkpoint poll interval (needs -watch)")
		snapshotAddr  = flag.String("snapshot-listen", "", "accept pushed reference snapshots from avgpipe-train -publish on this TCP address")
		maxBatch      = flag.Int("max-batch", 8, "run at most this many queued requests as one batch")
		workers       = flag.Int("workers", 2, "model replicas that may run a batch at once")
	)
	flag.Parse()

	var task *avgpipe.Task
	switch *taskName {
	case "translation":
		task = avgpipe.TranslationTask()
	case "classification":
		task = avgpipe.ClassificationTask()
	case "langmodel":
		task = avgpipe.LangModelTask()
	default:
		log.Fatalf("unknown task %q", *taskName)
	}
	if *checkpointDir == "" && *snapshotAddr == "" {
		log.Fatal("nothing to serve: need -checkpoint-dir and/or -snapshot-listen")
	}

	reg := avgpipe.NewMetricsRegistry()
	srv, err := avgpipe.NewInferenceServer(avgpipe.ServeConfig{
		Task: task, MaxBatch: *maxBatch, Workers: *workers, Obs: reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *checkpointDir != "" {
		if err := srv.InstallCheckpoint(*checkpointDir); err != nil {
			if !*watch && *snapshotAddr == "" {
				log.Fatalf("checkpoint: %v", err)
			}
			fmt.Printf("checkpoint not ready yet (%v); waiting for a model\n", err)
		} else {
			fmt.Printf("serving %q reference model from %s at round %d\n", task.Name, *checkpointDir, srv.Round())
		}
		if *watch {
			go srv.WatchCheckpoints(ctx, *checkpointDir, *watchEvery)
			fmt.Printf("watching %s every %v for newer rounds\n", *checkpointDir, *watchEvery)
		}
	}
	if *snapshotAddr != "" {
		l, err := avgpipe.NewTCPTransport(reg).Listen(*snapshotAddr)
		if err != nil {
			log.Fatalf("snapshot listener: %v", err)
		}
		defer l.Close()
		go srv.ServeSnapshots(ctx, l)
		fmt.Printf("accepting pushed snapshots on %s\n", l.Addr())
	}

	ln, err := stdnet.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	fmt.Printf("inference API: http://%s/v1/predict (POST), /v1/info, /metrics, /healthz, /readyz\n", ln.Addr())
	fmt.Printf("batching: max-batch %d, %d workers (seq_len %d, vocab %d)\n",
		*maxBatch, *workers, srv.SeqLen(), srv.Vocab())
	log.Fatal(http.Serve(ln, srv.Handler()))
}
