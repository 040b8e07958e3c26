// Command avgpipe-train runs real elastic-averaging training on one of
// the scaled-down workload tasks, reporting evaluation metrics until the
// task's convergence target is reached.
//
// Usage:
//
//	avgpipe-train -task translation -pipelines 2 -micro 4 -stages 2
//	avgpipe-train -schedule afab -partition cost
//	avgpipe-train -schedule afp -advance 2,0
//	avgpipe-train -metrics-addr :9090 -stats-jsonl steps.jsonl -trace-out run.trace
//
// With -metrics-addr the run serves live observability while training:
// Prometheus text on /metrics, liveness/readiness probes on /healthz and
// /readyz, expvar JSON on /debug/vars, and profiling on /debug/pprof
// (see the Observability section of README.md). With -telemetry-addr it
// additionally pushes metric snapshots, health events, and averaging
// trace spans to a running avgpipe-obs collector.
//
// With -publish the run streams reference-model snapshots to a running
// avgpipe-serve instance every -publish-every rounds, so the serving
// tier hot-swaps to fresh averaged weights with zero downtime (see the
// Serving section of README.md).
//
// With -listen/-peers/-replica-id the run becomes ONE replica of a
// multi-process job: N processes, each owning one pipeline, exchange
// elastic-averaging updates over a coordinator-free TCP mesh (see the
// Networking section of DESIGN.md). A 2-process localhost job:
//
//	avgpipe-train -replica-id 0 -listen 127.0.0.1:7070 -peers 1=127.0.0.1:7071 -pipelines 2 &
//	avgpipe-train -replica-id 1 -listen 127.0.0.1:7071 -peers 0=127.0.0.1:7070 -pipelines 2
//
// With -heal the job becomes self-healing: broken mesh links re-dial
// with backoff under fresh session epochs, a recovery supervisor
// auto-detaches stalled or unreachable replicas, and the averaging
// round deadline retunes itself from the observed round-latency tail.
// A replica that died can restart with -rejoin to re-enter the running
// job without operator coordination: it reseeds from the peers'
// reference model and rejoins the averaging set at the current round
// (see the Self-healing section of DESIGN.md and the chaos quick-start
// in README.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"avgpipe"
)

// parseAdvance turns "2,1,0" into the per-stage advance vector.
func parseAdvance(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	adv := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("advance element %q: %v", p, err)
		}
		adv[i] = v
	}
	return adv, nil
}

func main() {
	var (
		taskName  = flag.String("task", "translation", "translation, classification, or langmodel")
		pipelines = flag.Int("pipelines", 2, "parallel pipelines (N)")
		micro     = flag.Int("micro", 4, "micro-batches per batch (M)")
		stageN    = flag.Int("stages", 2, "pipeline stages (K)")
		rounds    = flag.Int("rounds", 500, "maximum training rounds")
		seed      = flag.Int64("seed", 1, "seed for models and data")
		schedule  = flag.String("schedule", "afp", "pipeline schedule: afab, gpipe, 1f1b, dapple, or afp")
		advance   = flag.String("advance", "", "per-stage AFP advance, comma-separated (e.g. 2,0), afp schedule only; empty = 1F1B")
		partition = flag.String("partition", "equal", "layer partitioning: equal or cost")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz, /debug/vars, and /debug/pprof on this address (e.g. :9090)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace of pipeline 0's final batch to this file")
		statsJSONL  = flag.String("stats-jsonl", "", "append one JSON line of step stats per round to this file")

		telemetryAddr     = flag.String("telemetry-addr", "", "ship metric snapshots, health events, and averaging traces to the avgpipe-obs collector at this address")
		telemetryInterval = flag.Duration("telemetry-interval", time.Second, "how often the telemetry publisher snapshots the registry")

		publishAddr  = flag.String("publish", "", "stream reference-model snapshots to the avgpipe-serve instance at this address")
		publishEvery = flag.Int("publish-every", 20, "publish a snapshot every this many rounds (needs -publish)")

		checkpointDir   = flag.String("checkpoint-dir", "", "directory for training checkpoints")
		checkpointEvery = flag.Int("checkpoint-every", 50, "save a checkpoint every this many rounds (needs -checkpoint-dir)")
		resume          = flag.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir")
		watchdog        = flag.Duration("watchdog", 0, "kill a batch whose pipeline makes no progress for this long (0 = off)")
		roundDeadline   = flag.Duration("round-deadline", 0, "expire averaging rounds open longer than this (0 = off)")

		healFlag   = flag.Bool("heal", false, "self-heal: reconnecting mesh links, auto-detach of failed replicas, adaptive round deadline")
		rejoinFlag = flag.Bool("rejoin", false, "re-enter a running multi-process job after a restart: reseed from the peers' reference and rejoin at the current round (needs -heal)")

		listenAddr  = flag.String("listen", "", "TCP address this replica's transport listens on (multi-process mode)")
		peersFlag   = flag.String("peers", "", "remote replicas as id=host:port pairs, comma-separated (multi-process mode)")
		replicaID   = flag.Int("replica-id", -1, "this process's pipeline index in a multi-process job (-1 = single-process)")
		meshTimeout = flag.Duration("mesh-timeout", 30*time.Second, "how long to wait for all peers while forming the mesh")
		topoFlag    = flag.String("topology", "mesh", "averaging topology: mesh (O(N²) connections), ring, or hier (both O(N))")
		groupFlag   = flag.Int("group", 0, "hierarchical group size (0 = ceil(sqrt(N)); needs -topology hier)")
		compressF   = flag.String("compress", "none", "update wire codec: none (exact f32), q8, q16, or topk (error-feedback compressed)")
		topkFlag    = flag.Float64("topk", 0, "kept-coefficient fraction for -compress topk in (0,1] (0 = default 0.05)")

		faultSeed       = flag.Int64("fault-seed", 0, "fault-injection seed (0 = faults off)")
		faultDelayProb  = flag.Float64("fault-delay-prob", 0, "probability an averaging update is delayed")
		faultDelay      = flag.Duration("fault-delay", 5*time.Millisecond, "delay applied to delayed averaging updates")
		faultDropProb   = flag.Float64("fault-drop-prob", 0, "probability an averaging update is dropped (needs -round-deadline)")
		faultStragProb  = flag.Float64("fault-straggler-prob", 0, "probability a stage op runs slow")
		faultStragDelay = flag.Duration("fault-straggler-delay", 2*time.Millisecond, "extra latency for straggler ops")
		crashPipeline   = flag.Int("crash-pipeline", 0, "pipeline to crash (with -crash-round)")
		crashRound      = flag.Int("crash-round", 0, "round at which -crash-pipeline crashes (0 = never)")
		rejoinAfter     = flag.Int("rejoin-after", 0, "rounds after the crash at which the replica rejoins (0 = never)")
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

	adv, err := parseAdvance(*advance)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := avgpipe.PlanByName(*schedule, adv)
	if err != nil {
		log.Fatal(err)
	}
	if adv != nil && !avgpipe.LegalAdvance(*stageN, *micro, adv) {
		log.Fatalf("advance %v is not legal for K=%d stages, M=%d micro-batches"+
			" (need len K and clamped warmup non-increasing across stages)", adv, *stageN, *micro)
	}
	var part avgpipe.PartitionMode
	switch *partition {
	case "equal":
		part = avgpipe.PartitionEqualLayers
	case "cost":
		part = avgpipe.PartitionCostAware
	default:
		log.Fatalf("unknown partition mode %q (want equal or cost)", *partition)
	}

	reg := avgpipe.NewMetricsRegistry()
	health := avgpipe.NewHealth()
	health.SetNotReady("starting")
	if *metricsAddr != "" {
		srv, addr, err := avgpipe.ServeMetrics(*metricsAddr, reg, avgpipe.WithHealth(health))
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (Prometheus), /healthz + /readyz (probes), /debug/vars (expvar), /debug/pprof (profiles)\n", addr)
	}

	var faults avgpipe.FaultConfig
	if *faultSeed != 0 {
		faults = avgpipe.FaultConfig{
			Seed:           *faultSeed,
			MsgDelayProb:   *faultDelayProb,
			MsgDelay:       *faultDelay,
			MsgDropProb:    *faultDropProb,
			StragglerProb:  *faultStragProb,
			StragglerDelay: *faultStragDelay,
			CrashPipeline:  *crashPipeline,
			CrashRound:     *crashRound,
			RejoinAfter:    *rejoinAfter,
		}
	}

	topo, err := avgpipe.TopologyByName(*topoFlag, *groupFlag)
	if err != nil {
		log.Fatal(err)
	}
	codec, err := avgpipe.UpdateCodecByName(*compressF)
	if err != nil {
		log.Fatal(err)
	}

	var dist *avgpipe.DistConfig
	if *replicaID >= 0 {
		if *listenAddr == "" {
			log.Fatal("-replica-id needs -listen")
		}
		peers, err := avgpipe.ParseReplicaPeers(*peersFlag)
		if err != nil {
			log.Fatal(err)
		}
		if len(peers)+1 != *pipelines {
			log.Fatalf("-pipelines says %d replicas, but %d peers + self = %d", *pipelines, len(peers), len(peers)+1)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *meshTimeout)
		mesh, err := avgpipe.DialMesh(ctx, avgpipe.MeshConfig{
			Self: *replicaID, Listen: *listenAddr, Peers: peers, Topology: topo,
			Registry: reg, SelfHeal: *healFlag, Rejoin: *rejoinFlag,
		})
		cancel()
		if err != nil {
			log.Fatalf("mesh: %v", err)
		}
		fmt.Printf("replica %d of %d: %s topology formed, listening on %s\n", *replicaID, *pipelines, topo.Name(), mesh.Addr())
		dist = &avgpipe.DistConfig{ReplicaID: *replicaID, Mesh: mesh}
	} else if topo.Name() != "mesh" {
		log.Fatal("-topology needs multi-process mode (-replica-id/-listen); single-process averaging is in-memory")
	}
	if *rejoinFlag && dist == nil {
		log.Fatal("-rejoin needs multi-process mode (-replica-id/-listen) with -heal")
	}

	fmt.Printf("training %q with N=%d pipelines, M=%d micro-batches, K=%d stages, %s schedule, %s partition (batch %d)\n",
		task.Name, *pipelines, *micro, *stageN, plan.Name, *partition, task.BatchSize)
	trainer, err := avgpipe.NewTrainer(avgpipe.TrainerConfig{
		Task: task, Pipelines: *pipelines, Micro: *micro,
		StageCount: *stageN, Seed: *seed, ClipNorm: 5,
		Plan: plan, Advance: adv, Partition: part,
		Trace: *traceOut != "", Obs: reg,
		Faults: faults, RoundDeadline: *roundDeadline, Watchdog: *watchdog,
		Dist: dist, Compress: codec, TopK: *topkFlag,
	})
	if err != nil {
		log.Fatalf("trainer: %v", err)
	}
	defer trainer.Close()
	health.SetReady() // mesh formed (if dist) and pipelines built: the run can serve traffic

	if *healFlag {
		rid := 0
		if dist != nil {
			rid = dist.ReplicaID
		}
		sup := avgpipe.NewHealSupervisor(trainer.Averager(), reg, avgpipe.HealConfig{
			Self: rid, Deadline: *roundDeadline,
		})
		sup.Start()
		defer sup.Stop()
		fmt.Println("self-healing: recovery supervisor armed (auto-detach + adaptive round deadline)")
	}

	if *telemetryAddr != "" {
		tracer := avgpipe.NewTracer("avgpipe-train")
		trainer.Averager().SetTracer(tracer)
		rid := 0 // single-process runs publish as replica 0
		if dist != nil {
			rid = dist.ReplicaID
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		pub, err := avgpipe.NewTelemetryPublisher(ctx, avgpipe.TelemetryPublisherConfig{
			Transport: avgpipe.NewTCPTransport(reg),
			Addr:      *telemetryAddr,
			Replica:   rid,
			Registry:  reg,
			Interval:  *telemetryInterval,
			Tracer:    tracer,
		})
		cancel()
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		pub.Start()
		defer pub.Close()
		fmt.Printf("telemetry: publishing to %s every %v (clock offset %v)\n",
			*telemetryAddr, *telemetryInterval, pub.ClockOffset())
	}

	startRound := 0
	if *resume {
		if *checkpointDir == "" {
			log.Fatal("-resume needs -checkpoint-dir")
		}
		if err := trainer.Restore(*checkpointDir); err != nil {
			log.Fatalf("restore: %v", err)
		}
		startRound = trainer.Round()
		fmt.Printf("resumed from %s at round %d\n", *checkpointDir, startRound)
	}
	if *rejoinFlag {
		rctx, rcancel := context.WithTimeout(context.Background(), *meshTimeout)
		join, err := trainer.RejoinMesh(rctx)
		rcancel()
		if err != nil {
			log.Fatalf("rejoin: %v", err)
		}
		startRound = join
		fmt.Printf("rejoined the job at round %d (reference reseeded from peers)\n", join)
	}

	if *statsJSONL != "" {
		f, err := os.Create(*statsJSONL)
		if err != nil {
			log.Fatalf("stats jsonl: %v", err)
		}
		defer f.Close()
		trainer.SetStepLog(f)
	}
	defer func() {
		if *traceOut == "" {
			return
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace out: %v", err)
		}
		defer f.Close()
		tracePipe := 0
		if dist != nil {
			tracePipe = dist.ReplicaID // the only pipeline this process runs
		}
		if err := trainer.Pipelines()[tracePipe].WriteTrace(f); err != nil {
			log.Fatalf("trace out: %v", err)
		}
		fmt.Printf("wrote Chrome trace of pipeline %d's last batch to %s\n", tracePipe, *traceOut)
	}()

	var publisher *avgpipe.ReferenceSnapshotPublisher
	if *publishAddr != "" {
		publisher = avgpipe.NewReferenceSnapshotPublisher(avgpipe.NewTCPTransport(reg), *publishAddr)
		defer publisher.Close()
		fmt.Printf("serving: publishing reference snapshots to %s every %d rounds\n", *publishAddr, *publishEvery)
	}
	publish := func(round int) {
		if publisher == nil || *publishEvery <= 0 || round%*publishEvery != 0 {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := publisher.Publish(ctx, round, trainer.ReferenceSnapshot())
		cancel()
		if err != nil {
			// Serving-tier outage must not kill training; the next publish
			// re-dials.
			fmt.Printf("snapshot publish failed at round %d: %v\n", round, err)
		}
	}

	checkpoint := func(round int) {
		if *checkpointDir == "" || *checkpointEvery <= 0 {
			return
		}
		if err := trainer.SaveCheckpoint(*checkpointDir); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		fmt.Printf("checkpoint saved to %s at round %d\n", *checkpointDir, round)
	}

	start := time.Now()
	for round := startRound; round <= *rounds; round++ {
		if round%20 == 0 {
			loss, acc := trainer.Eval()
			fmt.Printf("round %4d  batches %5d  loss=%.4f  acc=%.3f  %.1fs\n",
				round, round**pipelines, loss, acc, time.Since(start).Seconds())
			if task.Reached(loss, acc) {
				fmt.Println("convergence target reached ✔")
				checkpoint(round)
				return
			}
		}
		if round > startRound {
			publish(round)
		}
		if round == *rounds {
			break
		}
		if round > startRound && *checkpointEvery > 0 && round%*checkpointEvery == 0 {
			checkpoint(round)
		}
		if _, err := trainer.StepContext(context.Background()); err != nil {
			var stall *avgpipe.StallError
			if errors.As(err, &stall) {
				if *healFlag && dist != nil {
					log.Fatalf("watchdog killed a wedged round; peers auto-detach this replica"+
						" — restart with -rejoin to re-enter the job:\n%v", err)
				}
				log.Fatalf("watchdog killed a wedged round:\n%v", err)
			}
			log.Fatalf("round %d: %v", round, err)
		}
	}
	fmt.Println("round budget exhausted before target")
	checkpoint(trainer.Round())
}
