package collect

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	netx "avgpipe/internal/net"
	"avgpipe/internal/obs"
)

// DefaultStragglerThreshold is the relative slowdown (mean step time vs
// the median of the other replicas) above which a replica is flagged as a
// straggler.
const DefaultStragglerThreshold = 0.5

// CollectorConfig configures the cluster telemetry collector.
type CollectorConfig struct {
	// Transport accepts publisher sessions; Listen is the ingest address
	// (":0" for an ephemeral TCP port).
	Transport netx.Transport
	Listen    string
	// Expect is the replica count that must report a snapshot before
	// /readyz flips to ready; 0 means ready immediately.
	Expect int
	// Registry, when set, receives the collector's own operational
	// metrics and is included (unlabeled) in the merged exposition.
	Registry *obs.Registry
	// JSONL, when set, receives one JSON line per ingested snapshot and
	// per health event.
	JSONL io.Writer
	// StragglerThreshold overrides DefaultStragglerThreshold; negative
	// disables straggler detection.
	StragglerThreshold float64
	// EventCapacity bounds the retained merged event stream; 0 means
	// obs.DefaultEventCapacity.
	EventCapacity int
}

// replicaState is everything the collector retains about one replica.
type replicaState struct {
	snap      Snapshot
	hasSnap   bool
	trace     []obs.TraceEvent
	connected int  // live connections (reconnects overlap briefly)
	straggler bool // currently flagged by straggler detection
}

// Collector ingests per-replica telemetry streams and serves the merged
// cluster view. Construct with NewCollector; Close stops the accept
// loop and drains connection handlers.
type Collector struct {
	cfg      CollectorConfig
	ln       netx.Listener
	health   *obs.Health
	events   *obs.EventLog
	maxTrace int

	framesIn  *obs.Counter
	snapsIn   *obs.Counter
	eventsIn  *obs.Counter
	replicasG *obs.Gauge

	mu       sync.Mutex
	replicas map[int]*replicaState
	jsonlErr bool // stop writing JSONL after the first failure

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCollector binds the ingest listener and starts accepting publisher
// sessions.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("collect: collector needs a Transport")
	}
	if cfg.StragglerThreshold == 0 {
		cfg.StragglerThreshold = DefaultStragglerThreshold
	}
	if cfg.EventCapacity <= 0 {
		cfg.EventCapacity = obs.DefaultEventCapacity
	}
	ln, err := cfg.Transport.Listen(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("collect: listen %s: %w", cfg.Listen, err)
	}
	c := &Collector{
		cfg:      cfg,
		ln:       ln,
		health:   obs.NewHealth(),
		events:   obs.NewEventLog(cfg.EventCapacity),
		maxTrace: 1 << 18, // per-replica trace-event retention cap
		replicas: make(map[int]*replicaState),
	}
	if reg := cfg.Registry; reg != nil {
		c.framesIn = reg.Counter("avgpipe_collector_frames_total",
			"Telemetry frames ingested by the collector.")
		c.snapsIn = reg.Counter("avgpipe_collector_snapshots_total",
			"Metric snapshots ingested by the collector.")
		c.eventsIn = reg.Counter("avgpipe_collector_events_total",
			"Health events ingested by the collector.")
		c.replicasG = reg.Gauge("avgpipe_collector_connected_replicas",
			"Replicas with a live telemetry session.")
	}
	if cfg.Expect > 0 {
		c.health.SetNotReady(fmt.Sprintf("0/%d replicas reporting", cfg.Expect))
	} else {
		c.health.SetReady()
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(1)
	go c.acceptLoop(ctx)
	return c, nil
}

// Addr returns the bound ingest address (the actual port for ":0").
func (c *Collector) Addr() string { return c.ln.Addr() }

// Health exposes the readiness state for embedding in a larger handler.
func (c *Collector) Health() *obs.Health { return c.health }

func (c *Collector) acceptLoop(ctx context.Context) {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept(ctx)
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleConn(ctx, conn)
		}()
	}
}

// handleConn runs one publisher session: hello, then a stream of clock
// pings, snapshots, events, and trace batches until the peer hangs up.
func (c *Collector) handleConn(ctx context.Context, conn netx.Conn) {
	defer conn.Close()
	hello, err := conn.Recv(ctx)
	if err != nil || hello.Type != netx.FrameHello {
		return
	}
	replica := int(hello.Replica)
	c.connect(replica)
	defer c.disconnect(replica)
	for {
		f, err := conn.Recv(ctx)
		if err != nil {
			return
		}
		c.framesIn.Inc()
		switch f.Type {
		case netx.FrameClockPing:
			if err := netx.AnswerClockPing(ctx, conn, replica, f); err != nil {
				return
			}
		case netx.FrameTelemetry:
			c.ingestSnapshot(f.Blob)
		case netx.FrameEvent:
			c.ingestEvents(f.Blob)
		case netx.FrameTrace:
			c.ingestTrace(replica, f.Blob)
		default:
			// Tolerate unknown-but-valid frames from newer publishers.
		}
	}
}

// state returns the replica's retained state, creating it on first use.
// Callers must hold c.mu.
func (c *Collector) state(replica int) *replicaState {
	st := c.replicas[replica]
	if st == nil {
		st = &replicaState{}
		c.replicas[replica] = st
	}
	return st
}

func (c *Collector) connect(replica int) {
	c.mu.Lock()
	st := c.state(replica)
	st.connected++
	first := st.connected == 1
	c.mu.Unlock()
	if first {
		c.replicasG.Add(1)
		c.emit(obs.Event{Type: obs.EventReplicaConnect, Replica: replica, Round: -1})
	}
}

func (c *Collector) disconnect(replica int) {
	c.mu.Lock()
	st := c.state(replica)
	st.connected--
	last := st.connected == 0
	c.mu.Unlock()
	if last {
		c.replicasG.Add(-1)
		c.emit(obs.Event{Type: obs.EventReplicaDisconnect, Replica: replica, Round: -1})
	}
}

// emit records a collector-side event and streams it to JSONL.
func (c *Collector) emit(ev obs.Event) {
	c.streamEvent(c.record(ev))
}

// record stamps ev and appends it to the merged event stream. It takes no
// collector lock, so it may run under c.mu.
func (c *Collector) record(ev obs.Event) obs.Event {
	if ev.TimeUnixNano == 0 {
		ev.TimeUnixNano = time.Now().UnixNano()
	}
	c.events.Emit(ev)
	c.eventsIn.Inc()
	return ev
}

// streamEvent writes a recorded event to JSONL.
func (c *Collector) streamEvent(ev obs.Event) {
	c.writeJSONL(struct {
		Kind  string    `json:"kind"`
		Event obs.Event `json:"event"`
	}{Kind: "event", Event: ev})
}

func (c *Collector) ingestSnapshot(blob []byte) {
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return
	}
	c.snapsIn.Inc()
	c.mu.Lock()
	st := c.state(snap.Replica)
	st.snap, st.hasSnap = snap, true
	reporting := 0
	for _, s := range c.replicas {
		if s.hasSnap {
			reporting++
		}
	}
	// Readiness is set under c.mu: set after unlocking, a racing ingest's
	// stale "1/2 reporting" could land after the "ready" of the ingest
	// that completed the set, and stick.
	if c.cfg.Expect > 0 {
		if reporting >= c.cfg.Expect {
			c.health.SetReady()
		} else {
			c.health.SetNotReady(fmt.Sprintf("%d/%d replicas reporting", reporting, c.cfg.Expect))
		}
	}
	// The verdicts are recorded under c.mu too: a reader that sees this
	// snapshot also sees the straggler_detected events it raised.
	stragglers := c.detectStragglersLocked()
	for i, ev := range stragglers {
		stragglers[i] = c.record(ev)
	}
	c.mu.Unlock()
	for _, ev := range stragglers {
		c.streamEvent(ev)
	}
	c.writeJSONL(struct {
		Kind     string             `json:"kind"`
		Replica  int                `json:"replica"`
		TS       int64              `json:"ts_unix_nano"`
		Families []obs.FamilyExport `json:"families"`
	}{Kind: "snapshot", Replica: snap.Replica, TS: snap.TimeUnixNano, Families: snap.Families})
}

func (c *Collector) ingestEvents(blob []byte) {
	var events []obs.Event
	if err := json.Unmarshal(blob, &events); err != nil {
		return
	}
	for _, ev := range events {
		c.emit(ev)
	}
}

func (c *Collector) ingestTrace(replica int, blob []byte) {
	var events []obs.TraceEvent
	if err := json.Unmarshal(blob, &events); err != nil {
		return
	}
	c.mu.Lock()
	st := c.state(replica)
	st.trace = append(st.trace, events...)
	if len(st.trace) > c.maxTrace {
		st.trace = st.trace[len(st.trace)-c.maxTrace:]
	}
	c.mu.Unlock()
}

// writeJSONL appends one line to the configured JSONL stream.
func (c *Collector) writeJSONL(v any) {
	if c.cfg.JSONL == nil {
		return
	}
	line, err := json.Marshal(v)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jsonlErr {
		return
	}
	if _, err := c.cfg.JSONL.Write(append(line, '\n')); err != nil {
		c.jsonlErr = true
	}
}

// stepSecondsMean returns a replica's mean compute latency. It prefers
// the avgpipe_batch_seconds histogram (pipelined batch execution, which
// excludes the averaging barrier) because synchronous rounds spread a
// straggler's slowness to every replica's whole-step time; it falls
// back to avgpipe_train_step_seconds when the batch histogram is absent
// (e.g. a replica publishing a trimmed snapshot).
func stepSecondsMean(snap Snapshot) (float64, bool) {
	for _, name := range []string{"avgpipe_batch_seconds", "avgpipe_train_step_seconds"} {
		for _, f := range snap.Families {
			if f.Name != name {
				continue
			}
			for _, s := range f.Series {
				if s.Count > 0 {
					return s.Sum / float64(s.Count), true
				}
			}
		}
	}
	return 0, false
}

// firstValue returns the first series value of the named counter/gauge
// family in a replica's snapshot (per-replica registries carry at most
// one series per trainer family).
func firstValue(snap Snapshot, name string) (float64, bool) {
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			return s.Value, true
		}
	}
	return 0, false
}

// stragglerScores returns, per replica, the relative slowdown of its
// mean step time against the median of the other replicas' means (0 = at
// or below it). The replica itself is left out of its reference: counted
// in, a straggler drags the median toward itself — with two replicas the
// median is the pair's mean, so one running D slower than a peer at m
// scores D/(2m+D), never 1, and a host slow enough to inflate m pushes a
// plain straggler under any threshold. Callers must hold c.mu.
func (c *Collector) stragglerScoresLocked() map[int]float64 {
	means := make(map[int]float64)
	for id, st := range c.replicas {
		if !st.hasSnap {
			continue
		}
		if m, ok := stepSecondsMean(st.snap); ok && m > 0 {
			means[id] = m
		}
	}
	if len(means) < 2 {
		return nil
	}
	scores := make(map[int]float64, len(means))
	others := make([]float64, 0, len(means)-1)
	for id, m := range means {
		others = others[:0]
		for peer, pm := range means {
			if peer != id {
				others = append(others, pm)
			}
		}
		sort.Float64s(others)
		median := others[len(others)/2]
		if len(others)%2 == 0 {
			median = (others[len(others)/2-1] + others[len(others)/2]) / 2
		}
		scores[id] = max(m/median-1, 0)
	}
	return scores
}

// detectStragglersLocked updates straggler flags with hysteresis (flag
// above threshold, clear below half of it) and returns the
// straggler_detected events to emit. Callers must hold c.mu.
func (c *Collector) detectStragglersLocked() []obs.Event {
	if c.cfg.StragglerThreshold < 0 {
		return nil
	}
	var out []obs.Event
	for id, score := range c.stragglerScoresLocked() {
		st := c.replicas[id]
		switch {
		case !st.straggler && score > c.cfg.StragglerThreshold:
			st.straggler = true
			out = append(out, obs.Event{
				Type: obs.EventStragglerDetected, Replica: id, Round: -1, Value: score,
				Detail: fmt.Sprintf("mean batch time %.0f%% above cluster median", score*100),
			})
		case st.straggler && score < c.cfg.StragglerThreshold/2:
			st.straggler = false
		}
	}
	return out
}

// MergedFamilies returns the cluster-level metric families: every
// replica's snapshot with `replica="id"` injected into each series,
// plus the collector's own registry and the derived cross-replica
// series.
func (c *Collector) MergedFamilies() []obs.FamilyExport {
	c.mu.Lock()
	defer c.mu.Unlock()

	byName := make(map[string]*obs.FamilyExport)
	var order []string
	add := func(f obs.FamilyExport, series []obs.SeriesExport) {
		fam := byName[f.Name]
		if fam == nil {
			fam = &obs.FamilyExport{Name: f.Name, Help: f.Help, Type: f.Type}
			byName[f.Name] = fam
			order = append(order, f.Name)
		}
		fam.Series = append(fam.Series, series...)
	}

	ids := make([]int, 0, len(c.replicas))
	for id := range c.replicas {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	connected := 0
	for _, id := range ids {
		st := c.replicas[id]
		if st.connected > 0 {
			connected++
		}
		if !st.hasSnap {
			continue
		}
		for _, f := range st.snap.Families {
			series := make([]obs.SeriesExport, len(f.Series))
			for i, s := range f.Series {
				s.Labels = obs.WithLabel(s.Labels, "replica", fmt.Sprint(id))
				series[i] = s
			}
			add(f, series)
		}
	}
	if c.cfg.Registry != nil {
		for _, f := range c.cfg.Registry.Export() {
			add(f, f.Series)
		}
	}
	for _, f := range c.derivedFamiliesLocked(connected) {
		add(f, f.Series)
	}

	out := make([]obs.FamilyExport, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// derivedFamiliesLocked computes the cross-replica series that exist
// only at the collector: replica count, round staleness skew, loss
// divergence, per-stage bubble-fraction spread, and straggler scores.
// Callers must hold c.mu.
func (c *Collector) derivedFamiliesLocked(connected int) []obs.FamilyExport {
	fams := []obs.FamilyExport{{
		Name:   "avgpipe_cluster_replicas",
		Help:   "Replicas with a live telemetry session.",
		Type:   "gauge",
		Series: []obs.SeriesExport{{Value: float64(connected)}},
	}}

	spread := func(name string) (float64, bool) {
		lo, hi, n := 0.0, 0.0, 0
		for _, st := range c.replicas {
			if !st.hasSnap {
				continue
			}
			v, ok := firstValue(st.snap, name)
			if !ok {
				continue
			}
			if n == 0 || v < lo {
				lo = v
			}
			if n == 0 || v > hi {
				hi = v
			}
			n++
		}
		return hi - lo, n >= 2
	}
	if skew, ok := spread("avgpipe_train_round"); ok {
		fams = append(fams, obs.FamilyExport{
			Name:   "avgpipe_cluster_round_skew_rounds",
			Help:   "Spread (max-min) of completed averaging rounds across replicas.",
			Type:   "gauge",
			Series: []obs.SeriesExport{{Value: skew}},
		})
	}
	if div, ok := spread("avgpipe_train_loss"); ok {
		fams = append(fams, obs.FamilyExport{
			Name:   "avgpipe_cluster_loss_divergence",
			Help:   "Spread (max-min) of training loss across replicas.",
			Type:   "gauge",
			Series: []obs.SeriesExport{{Value: div}},
		})
	}

	// Per-stage bubble-fraction spread: group stage series by their
	// label set (stage="s"), take max-min across replicas per group.
	type bounds struct {
		lo, hi float64
		n      int
	}
	byStage := make(map[string]*bounds)
	for _, st := range c.replicas {
		if !st.hasSnap {
			continue
		}
		for _, f := range st.snap.Families {
			if f.Name != "avgpipe_stage_bubble_fraction" {
				continue
			}
			for _, s := range f.Series {
				b := byStage[s.Labels]
				if b == nil {
					b = &bounds{lo: s.Value, hi: s.Value}
					byStage[s.Labels] = b
				}
				if s.Value < b.lo {
					b.lo = s.Value
				}
				if s.Value > b.hi {
					b.hi = s.Value
				}
				b.n++
			}
		}
	}
	var stageSeries []obs.SeriesExport
	for ls, b := range byStage {
		if b.n >= 2 {
			stageSeries = append(stageSeries, obs.SeriesExport{Labels: ls, Value: b.hi - b.lo})
		}
	}
	if len(stageSeries) > 0 {
		fams = append(fams, obs.FamilyExport{
			Name:   "avgpipe_cluster_stage_bubble_spread",
			Help:   "Spread (max-min) of per-stage bubble fraction across replicas.",
			Type:   "gauge",
			Series: stageSeries,
		})
	}

	if scores := c.stragglerScoresLocked(); len(scores) > 0 {
		var series []obs.SeriesExport
		for id, score := range scores {
			series = append(series, obs.SeriesExport{
				Labels: obs.WithLabel("", "replica", fmt.Sprint(id)),
				Value:  score,
			})
		}
		fams = append(fams, obs.FamilyExport{
			Name:   "avgpipe_cluster_straggler_score",
			Help:   "Relative slowdown of each replica's mean step time vs the median of the other replicas.",
			Type:   "gauge",
			Series: series,
		})
	}
	return fams
}

// WriteMergedMetrics renders the merged cluster families as Prometheus
// text.
func (c *Collector) WriteMergedMetrics(w io.Writer) error {
	return obs.WritePrometheusFamilies(w, c.MergedFamilies())
}

// Events returns a copy of the retained merged health-event stream in
// arrival order.
func (c *Collector) Events() []obs.Event {
	return c.events.Peek()
}

// Snapshots returns the latest snapshot per replica.
func (c *Collector) Snapshots() map[int]Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]Snapshot, len(c.replicas))
	for id, st := range c.replicas {
		if st.hasSnap {
			out[id] = st.snap
		}
	}
	return out
}

// MergedTrace merges the per-replica trace streams into one
// clock-aligned timeline. Publishers already shifted their spans into
// collector time, so no further offset correction is applied here.
func (c *Collector) MergedTrace() *obs.Tracer {
	c.mu.Lock()
	parts := make([]obs.ReplicaTrace, 0, len(c.replicas))
	ids := make([]int, 0, len(c.replicas))
	for id := range c.replicas {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := c.replicas[id]
		if len(st.trace) == 0 {
			continue
		}
		parts = append(parts, obs.ReplicaTrace{
			Replica: id,
			Events:  append([]obs.TraceEvent(nil), st.trace...),
		})
	}
	c.mu.Unlock()
	return obs.MergeTraces(parts)
}

// WriteMergedTrace writes the merged timeline as a Chrome trace JSON
// document.
func (c *Collector) WriteMergedTrace(w io.Writer) error {
	return c.MergedTrace().Write(w)
}

// Handler serves the collector's HTTP surface:
//
//	/metrics   merged cluster Prometheus exposition
//	/events    merged health-event stream as a JSON array
//	/trace     merged clock-aligned Chrome trace
//	/healthz   liveness
//	/readyz    readiness: 200 once Expect replicas report snapshots
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := c.WriteMergedMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		events := c.Events()
		if events == nil {
			events = []obs.Event{}
		}
		json.NewEncoder(w).Encode(events)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := c.WriteMergedTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	obs.RegisterHealth(mux, c.health)
	return mux
}

// Close stops the accept loop and waits for connection handlers to
// drain.
func (c *Collector) Close() error {
	c.cancel()
	err := c.ln.Close()
	c.wg.Wait()
	return err
}
