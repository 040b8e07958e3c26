package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"avgpipe/internal/heal"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
)

// The seeded explorer runs one real Averager per simulated replica, each
// attached to a real Mesh, and checks the protocol's invariants after
// every step (DESIGN.md §8, "Protocol core"). The meshes form through
// netx.FormJob over simNet, a transport whose every Send afterwards joins
// a FIFO link of the explorer — the loopback, which is the reference
// loop's queue, among them. The explorer then calls the shell's handlers
// itself: it delivers link heads (receive for a peer's frame, run for the
// loopback's), fires tick when a deadline falls due on its virtual clock,
// releases fault holds and steps each replica's trainer, in an order
// drawn from the seed. Every choice comes from one splitmix64 stream, so
// a seed replays exactly.

// exploreScenario is one family of schedules.
type exploreScenario struct {
	name string
	// faults drops and holds updates the way net.Faulty does (a held
	// update is overtaken by later frames); deadline arms the round
	// deadline.
	faults, deadline bool
	// detach lets a replica detach itself, and rejoin lets it come back.
	detach, rejoin bool
	// crash stops a replica that relays nothing; each survivor detaches
	// it once the frames it sent have reached it, as a supervisor does on
	// a broken connection. restart brings it back through the
	// ref_request / ref_state / rejoin exchange.
	crash, restart bool
	// supervised runs a heal.Supervisor on every replica: survivors then
	// detach a crashed replica only through its round pass, and the
	// restart waits until every survivor has.
	supervised bool
	// quiet asserts what holds without drops: at quiescence no round is
	// left open and every local update was applied (Drain terminates);
	// identical adds that every replica's reference is bit-identical
	// after each round it closes.
	quiet, identical bool
}

// exploreScenarios run in tier 1. Rejoin and restart run without the
// identity check, and restart with a deadline: a replica's readmission
// races rounds its peers are already closing, and a restarted replica
// never sees the updates sent while it was down (TestExploreKnownRaces).
var exploreScenarios = []exploreScenario{
	{name: "reorder", quiet: true, identical: true},
	{name: "detach", detach: true, quiet: true, identical: true},
	{name: "crash", crash: true, quiet: true, identical: true},
	{name: "rejoin", detach: true, rejoin: true, quiet: true},
	{name: "restart", deadline: true, crash: true, restart: true},
	{name: "faults", faults: true, deadline: true, detach: true, rejoin: true, crash: true, restart: true},
	{name: "supervised", deadline: true, crash: true, restart: true, supervised: true},
}

const (
	exploreRounds   = 6
	exploreDeadline = 20 * time.Millisecond
	exploreMaxSteps = 50000
	// exploreMissed is the supervisors' MissedRounds, low enough for
	// exploreRounds to reach.
	exploreMissed = 2
)

// simMsg is a frame on a link, stamped with the receiver's incarnation
// so a restarted replica never receives what was sent to its old self.
type simMsg struct {
	f     *netx.Frame
	epoch int
}

// simHeld is a held update, due on the link from → to at time at.
type simHeld struct {
	at       time.Time
	from, to int
	f        *netx.Frame
}

// simReplica is one simulated process: its Averager, the dist-mode
// trainer's round loop over one weight tensor, and the explorer's
// bookkeeping.
type simReplica struct {
	avg   *Averager
	w     []*nn.Param
	up    bool
	epoch int
	// The trainer: the next round, whether it has submitted (and awaits)
	// it, whether it detached itself (detaching signals once the reference
	// loop ran that Detach), and, after a restart, the pending
	// ResumeReplica.
	round     int
	submitted bool
	detached  bool
	detaching chan struct{}
	resuming  chan resumed
	// applied is every round folded into the reference, including those
	// inherited from a peer's reference state; hist hashes the closure
	// history.
	applied map[int]bool
	hist    uint64
	// out and from shadow the membership frames this replica's reference
	// loop ran (detached, and admitted from which round), to judge
	// admission independently of the core's quorum; after a restart,
	// resumed is the join round of the reference state it adopted.
	out     []bool
	from    []int
	resumed int
}

type explorer struct {
	seed  uint64
	rng   uint64
	n     int
	topo  netx.Topology
	sc    exploreScenario
	now   time.Time
	reps  []*simReplica
	mesh  []*netx.Mesh
	reg   *obs.Registry // the shells' metrics, one set for all
	links [][][]simMsg  // links[from][to], FIFO; [r][r] is r's loopback
	held  []simHeld
	// fate is the fate of the update being submitted: 0 sent, <0 dropped,
	// >0 held that long. state is the replier's bookkeeping behind each
	// ref_state reply, as of its sending.
	fate  time.Duration
	state map[*netx.Frame]*simReplica
	// crashed is the replica that crashed (-1 before), and detachPending
	// [s] marks survivor s still to detach it.
	crashed       int
	restarted     bool
	detachPending []bool
	// histBits maps a closure history to the reference bits it produced;
	// canon[r] is the first replica's history and bits after round r.
	histBits map[uint64]string
	canon    map[int]string
	trace    uint64
	log      []string
	err      error
}

// The explorer is the shells' clock: virtual time, and no timers.
func (x *explorer) Now() time.Time                              { return x.now }
func (x *explorer) AfterFunc(time.Duration, func()) *time.Timer { return nil }

// simNet is replica self's transport: InProc, whose dialed connections
// become the explorer's links once the meshes have formed.
type simNet struct {
	netx.Transport
	x    *explorer
	self int
}

func (s simNet) Dial(ctx context.Context, addr string) (netx.Conn, error) {
	c, err := s.Transport.Dial(ctx, addr)
	to, _ := strconv.Atoi(addr)
	return &simConn{Conn: c, x: s.x, from: s.self, to: to}, err
}

// simConn is the link from → to. The hellos of mesh formation travel
// InProc; every later Send is the explorer's send.
type simConn struct {
	netx.Conn
	x        *explorer
	from, to int
}

func (c *simConn) Send(ctx context.Context, f *netx.Frame) error {
	if c.x.mesh == nil {
		return c.Conn.Send(ctx, f)
	}
	return c.x.send(c.from, c.to, f)
}

// splitmix64, as in internal/fault.
func exploreMix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (x *explorer) next() uint64 {
	x.rng += 0x9e3779b97f4a7c15
	return exploreMix(x.rng)
}

func (x *explorer) intn(n int) int { return int(x.next() % uint64(n)) }

func (x *explorer) coin(p float64) bool { return float64(x.next()>>11)/(1<<53) < p }

func (x *explorer) hash(vs ...int) {
	for _, v := range vs {
		x.trace = exploreMix(x.trace ^ uint64(int64(v)))
	}
}

func (x *explorer) note(format string, args ...any) {
	x.log = append(x.log, fmt.Sprintf("t=%v ", x.now.Sub(time.Time{}))+fmt.Sprintf(format, args...))
	if len(x.log) > 40 {
		x.log = x.log[1:]
	}
}

func (x *explorer) fail(format string, args ...any) {
	if x.err == nil {
		x.err = fmt.Errorf("%s n=%d %s seed %d: %s\nlast events:\n  %s", x.sc.name, x.n, x.topo.Name(),
			x.seed, fmt.Sprintf(format, args...), strings.Join(x.log, "\n  "))
	}
}

func newExplorer(seed uint64, n int, topo netx.Topology, sc exploreScenario) *explorer {
	x := &explorer{seed: seed, rng: seed, n: n, topo: topo, sc: sc, reg: obs.NewRegistry(),
		reps: make([]*simReplica, n), crashed: -1, detachPending: make([]bool, n),
		state: map[*netx.Frame]*simReplica{}, histBits: map[uint64]string{}, canon: map[int]string{}}
	tr, trs, lns := netx.NewInProc(0), make([]netx.Transport, n), make([]netx.Listener, n)
	x.links = make([][][]simMsg, n)
	for i := range n {
		x.links[i] = make([][]simMsg, n)
		trs[i] = simNet{tr, x, i}
		lns[i], _ = tr.Listen(strconv.Itoa(i)) // a fresh address on a fresh InProc
	}
	mesh, err := netx.FormJob(context.Background(), trs, lns, topo)
	if err != nil {
		panic(err) // the in-process fabric always forms
	}
	x.mesh = mesh
	for id := range x.reps {
		x.start(id)
	}
	return x
}

// start boots replica id's process, a fresh incarnation after a crash:
// an Averager over id's mesh whose update queue is id's loopback link.
func (x *explorer) start(id int) *simReplica {
	r := &simReplica{up: true, w: []*nn.Param{nn.NewParam("w", tensor.FromSlice(
		[]float32{0, float32(math.Copysign(0, -1)), 1}, 3))}, // −0 takes the gap-touching apply path
		applied: map[int]bool{}, out: make([]bool, x.n), from: make([]int, x.n)}
	if old := x.reps[id]; old != nil {
		r.epoch = old.epoch + 1
	}
	x.reps[id] = r
	loop := &simConn{x: x, from: id, to: id}
	r.avg = newAverager(x.n, r.w, x.reg, x, loop, loop)
	r.avg.observe = func(c closure[[]*tensor.Runs]) { x.closed(id, c) }
	r.avg.attach(x.mesh[id])
	if x.sc.deadline {
		r.avg.SetRoundDeadline(exploreDeadline)
	}
	if x.sc.supervised {
		reg := obs.NewRegistry() // the supervisor's own actions and events
		reg.Events().AddSink(func(e obs.Event) {
			if e.Type == obs.EventHealAction {
				x.lagDetached(r, id, e.Replica)
			}
		})
		heal.New(r.avg, reg.Events(), heal.Config{Self: id, MissedRounds: exploreMissed, Registry: reg,
			Deadline: exploreDeadline, MinDeadline: exploreDeadline / 2, MaxDeadline: 2 * exploreDeadline}).Start()
	}
	return r
}

// lagDetached checks a detach for lag that replica id's supervisor made:
// the copy's newest round must be exploreMissed past the round before p's
// join, as this replica's reference loop admitted it, or, on a restarted
// copy, before the round the adopted reference state holds every update
// below.
func (x *explorer) lagDetached(r *simReplica, id, p int) {
	latest, join := r.avg.proto.latestRound, max(r.from[p], r.resumed)
	x.note("replica %d's supervisor detaches %d at round %d", id, p, latest)
	x.hash(3, id, p, latest)
	if latest < join-1+exploreMissed {
		x.fail("replica %d detached %d for lag at round %d, which its join round %d does not reach", id, p, latest, join)
	}
	r.out[p] = true
	if p == x.crashed {
		x.detachPending[id] = false
	}
}

// send is every Send after formation: f joins the link from → to. An
// update leaving its origin — the loopback and first hops of the submit
// path — meets the one fate drawn for it, as under net.Faulty.
func (x *explorer) send(from, to int, f *netx.Frame) error {
	if _, upd := netx.UpdateCodec(f.Type); upd && from == int(f.Replica) && x.fate != 0 {
		if x.fate < 0 {
			return netx.ErrDropped
		}
		x.held = append(x.held, simHeld{x.now.Add(x.fate), from, to, f})
		return nil
	}
	if r := x.reps[from]; f.Type == netx.FrameRefState && from == int(f.Replica) {
		x.state[f] = &simReplica{applied: maps.Clone(r.applied), hist: r.hist}
	}
	x.links[from][to] = append(x.links[from][to], simMsg{f, x.reps[to].epoch})
	return nil
}

// reaches reports whether a frame of the given origin, on the link
// from → at, will still be delivered to replica s.
func (x *explorer) reaches(origin, from, at, s int) bool {
	if at == s {
		return true
	}
	for _, q := range x.topo.Relays(at, x.n, origin, from) {
		if x.reaches(origin, at, q, s) {
			return true
		}
	}
	return false
}

// relays reports whether replica z forwards anything on this topology: a
// crashed relay partitions the fabric, which no protocol rule can fix.
func (x *explorer) relays(z int) bool {
	for o := range x.n {
		for f := range x.n {
			if len(x.topo.Relays(z, x.n, o, f)) > 0 {
				return true
			}
		}
	}
	return false
}

// submitting counts the replicas whose trainer still submits updates.
func (x *explorer) submitting() int {
	k := 0
	for _, r := range x.reps {
		if r.up && !r.detached && r.resuming == nil {
			k++
		}
	}
	return k
}

// closed checks one round replica id's shell just applied.
func (x *explorer) closed(id int, c closure[[]*tensor.Runs]) {
	r := x.reps[id]
	if r.applied[c.round] {
		x.fail("replica %d applied round %d twice", id, c.round)
	}
	r.applied[c.round] = true
	mask := 0
	for _, p := range c.from {
		mask |= 1 << p
	}
	r.hist = exploreMix(r.hist ^ uint64(c.round)<<8 ^ uint64(mask))
	bits := fmt.Sprint(r.avg.ref[0].Data()) // shortest form: one string per bit pattern but NaN's
	x.note("replica %d closed round %d over %b (%d): %s", id, c.round, mask, c.why, bits)
	x.hash(1, id, c.round, mask, int(c.why))
	if b, ok := x.histBits[r.hist]; ok && b != bits {
		x.fail("replica %d: the same closure history as a peer gave reference %s, not %s", id, bits, b)
	}
	x.histBits[r.hist] = bits
	if !x.sc.identical {
		return
	}
	got := fmt.Sprintf("history %x, reference %s", r.hist, bits)
	if want, ok := x.canon[c.round]; !ok {
		x.canon[c.round] = got
	} else if got != want {
		x.fail("after round %d replica %d has %s, a peer had %s", c.round, id, got, want)
	}
}

// deliver hands the head of the link from → to to replica to's shell: a
// peer's frame to receive, a loopback frame to the reference loop's run.
func (x *explorer) deliver(from, to int) {
	m := x.links[from][to][0]
	x.links[from][to] = x.links[from][to][1:]
	r, f, p := x.reps[to], m.f, int(m.f.Replica)
	x.hash(2, from, to, int(f.Type), p, int(f.Round))
	if !r.up || m.epoch != r.epoch {
		return // sent to a process that has since died
	}
	if from != to {
		if st := x.state[f]; st != nil && int(f.Meta) == to && r.resuming != nil {
			r.applied, r.hist = maps.Clone(st.applied), st.hist // the adopted reference's rounds
			r.resumed = int(f.Round)
		}
		if _ = r.avg.receive(from, nil, f); len(r.resuming) > 0 {
			res := <-r.resuming
			r.resuming, r.round, r.from[to] = nil, res.join, res.join
			x.note("replica %d resumes from %d's state at round %d", to, p, res.join)
		}
		return
	}
	// The shadow moves before run, whose supervisor pass may detach; an
	// update is judged against the shadow before its frame.
	wasOut, wasFrom := r.out[p], r.from[p]
	switch f.Type {
	case netx.FrameDetach:
		r.out[p] = true
		x.note("replica %d detaches %d", to, p)
	case netx.FrameRejoin:
		if r.out[p] {
			r.out[p], r.from[p] = false, int(f.Round)
			x.note("replica %d readmits %d from round %d", to, p, f.Round)
		}
	}
	accepted := r.avg.updates.Value()
	r.avg.run(f)
	if r.avg.updates.Value() > accepted && (wasOut || wasFrom > int(f.Round)) {
		x.fail("replica %d counted replica %d's update toward round %d, which does not admit it", to, p, f.Round)
	}
}

// step advances replica id's trainer as the dist-mode trainer does: at a
// round's start it may detach, rejoin or crash, then trains and submits
// (unless detached) and awaits the round; once the round closed it
// dilutes and moves to the next.
func (x *explorer) step(id int) {
	r := x.reps[id]
	if r.submitted {
		if !r.detached {
			r.avg.Dilute(id, r.w)
		}
		r.round++
		r.submitted = false
		return
	}
	switch {
	case x.sc.detach && !r.detached && x.submitting() > 1 && x.coin(0.1):
		r.detached, r.detaching = true, r.avg.queueDetach(id)
	case x.sc.rejoin && r.detached && x.coin(0.3):
		r.avg.Rejoin(id, r.w)
		r.detached, r.out[id], r.from[id] = false, false, r.avg.proto.liveFrom[id]
		x.note("replica %d rejoins from round %d", id, r.from[id])
	case x.sc.crash && x.crashed < 0 && !x.relays(id) && !r.detached && x.submitting() > 1 && x.coin(0.05):
		x.note("replica %d crashes", id)
		x.crashed, r.up = id, false
		x.held = slices.DeleteFunc(x.held, func(h simHeld) bool { return h.from == id })
		for s, q := range x.reps {
			x.detachPending[s] = q.up && (!x.sc.supervised || q.avg.Live(id))
		}
		return
	}
	if !r.detached {
		// A training step whose delta's float sum depends on the fold order.
		palette := []float32{1e8, -1e8, 1, -1, 0.5, 3, 0, 0}
		w := r.w[0].W.Data()
		for i := range w {
			w[i] += palette[x.intn(len(palette))]
		}
		switch {
		case x.sc.faults && x.coin(0.15):
			x.fate = -1
		case x.sc.faults && x.coin(0.2):
			x.fate = time.Duration(3+x.intn(40)) * time.Millisecond
		}
		_ = r.avg.SubmitContext(context.Background(), id, r.round, r.w)
		x.fate = 0
	}
	r.avg.await(r.round)
	r.submitted = true
}

// inFlightFrom reports whether a frame replica z originated is still on
// its way to replica s. One in s's loopback queue has arrived: a Detach
// queued there runs after it.
func (x *explorer) inFlightFrom(z, s int) bool {
	for a := range x.n {
		for b := range x.n {
			for _, m := range x.links[a][b] {
				if a != b && m.f.Type != netx.FrameRefState && int(m.f.Replica) == z && x.reaches(z, a, b, s) {
					return true
				}
			}
		}
	}
	return false
}

// actions lists what may happen next, and wake is the earliest later
// time a hold releases or a deadline falls due (zero: none).
func (x *explorer) actions() (acts []func(), wake time.Time) {
	due := func(t time.Time) bool {
		if t.After(x.now) && (wake.IsZero() || t.Before(wake)) {
			wake = t
		}
		return !t.After(x.now)
	}
	for a := range x.n {
		for b := range x.n {
			if len(x.links[a][b]) > 0 {
				acts = append(acts, func() { x.deliver(a, b) })
			}
		}
	}
	for id, r := range x.reps {
		if !r.up {
			continue
		}
		idle := r.resuming == nil && (r.detaching == nil || len(r.detaching) > 0)
		if idle && r.round < exploreRounds && (!r.submitted || r.avg.RoundClosed(r.round)) {
			acts = append(acts, func() { x.step(id) })
		}
		if at, ok := r.avg.proto.nextDeadline(); ok && due(at) {
			acts = append(acts, r.avg.tick)
		}
		if x.detachPending[id] && !x.sc.supervised && !x.inFlightFrom(x.crashed, id) {
			acts = append(acts, func() { x.detachPending[id] = false; r.avg.queueDetach(x.crashed) })
		}
	}
	if z := x.crashed; z >= 0 && x.sc.restart && !x.restarted && !slices.Contains(x.detachPending, true) {
		acts = append(acts, func() {
			x.note("replica %d restarts", z)
			x.restarted = true
			r := x.start(z)
			_, r.resuming, _ = r.avg.requestRef(context.Background())
		})
	}
	for i, h := range x.held {
		if due(h.at) {
			acts = append(acts, func() {
				x.held = slices.Delete(x.held, i, i+1)
				x.links[h.from][h.to] = append(x.links[h.from][h.to], simMsg{h.f, x.reps[h.to].epoch})
			})
		}
	}
	return acts, wake
}

// run explores one schedule to quiescence and returns the first
// invariant violation.
func (x *explorer) run() error {
	for step := 0; x.err == nil; step++ {
		if step == exploreMaxSteps {
			x.fail("no quiescence after %d steps", step)
			break
		}
		x.now = x.now.Add(time.Duration(x.intn(300)) * time.Microsecond)
		acts, wake := x.actions()
		if len(acts) > 0 {
			acts[x.intn(len(acts))]()
		} else if !wake.IsZero() {
			x.now = wake
		} else {
			break
		}
	}
	if x.err == nil {
		x.quiesced()
	}
	return x.err
}

// quiesced checks the end state: every running trainer finished, and in
// drop-free schedules no round is left open, every local update was
// applied, and all references agree.
func (x *explorer) quiesced() {
	var bits string
	for id, r := range x.reps {
		if !r.up {
			continue
		}
		if r.resuming != nil || r.round < exploreRounds {
			x.fail("stuck: replica %d waits on round %d (closed %v)", id, r.round, r.avg.RoundClosed(r.round))
			return
		}
		if !x.sc.quiet {
			continue
		}
		if len(r.avg.proto.open) > 0 {
			x.fail("replica %d left %d rounds open", id, len(r.avg.proto.open))
		}
		if r.avg.sent != r.avg.applied {
			x.fail("replica %d sent %d updates and applied %d", id, r.avg.sent, r.avg.applied)
		}
		if b := fmt.Sprint(r.avg.ref[0].Data()); bits == "" || !x.sc.identical {
			bits = b
		} else if b != bits {
			x.fail("final references differ: replica %d has %s, another %s", id, b, bits)
		}
	}
}

func exploreOne(seed uint64, n int, topo netx.Topology, sc exploreScenario) (uint64, error) {
	x := newExplorer(seed, n, topo, sc)
	err := x.run()
	return x.trace, err
}

// TestExploreProtocol runs every scenario over N ∈ {2,3,4} × mesh, ring
// and hierarchical groups of 2, 150 seeds per cell, or as many as
// AVGPIPE_EXPLORE_SEEDS says (make faults sets it).
func TestExploreProtocol(t *testing.T) {
	seeds := 150
	if s := os.Getenv("AVGPIPE_EXPLORE_SEEDS"); s != "" {
		var err error
		if seeds, err = strconv.Atoi(s); err != nil || seeds <= 0 {
			t.Fatalf("AVGPIPE_EXPLORE_SEEDS %q: want a positive seed count", s)
		}
	}
	for _, sc := range exploreScenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			for n := 2; n <= 4; n++ {
				for _, topo := range []netx.Topology{netx.FullMesh{}, netx.Ring{}, netx.Hierarchical{Group: 2}} {
					for seed := range seeds {
						if _, err := exploreOne(uint64(seed), n, topo, sc); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// TestExploreDeterminism: in every scenario a seed replays to the
// identical trace.
func TestExploreDeterminism(t *testing.T) {
	for _, sc := range exploreScenarios {
		for seed := range uint64(20) {
			a, errA := exploreOne(seed, 4, netx.Hierarchical{Group: 2}, sc)
			b, errB := exploreOne(seed, 4, netx.Hierarchical{Group: 2}, sc)
			if a != b || fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("%s seed %d: traces %x and %x (errors %v, %v)", sc.name, seed, a, b, errA, errB)
			}
		}
	}
}

// exploreCase names one explored schedule.
type exploreCase struct {
	name     string
	scenario string
	n        int
	topo     netx.Topology
	seed     uint64
}

func scenarioNamed(name string) exploreScenario {
	for _, sc := range exploreScenarios {
		if sc.name == name {
			return sc
		}
	}
	panic("no explorer scenario " + name)
}

// TestExplorePinnedSeeds replays, per protocol fix the explorer drove,
// the first seed that fails without it.
func TestExplorePinnedSeeds(t *testing.T) {
	runExploreCases(t, false, []exploreCase{
		// Completeness compared counts: a replica's update, then its
		// detach, closed a round still missing a live replica's update.
		{"DetachedUpdateStandsInForNoOne", "detach", 3, netx.FullMesh{}, 44},
		{"CrashedUpdateStandsInForNoOne", "crash", 3, netx.FullMesh{}, 120},
		// A peer readmitted a rejoiner from its own, later watermark
		// instead of the announced round, and a detached replica then
		// waited forever on a round nobody it admitted would submit to.
		{"RejoinAdmitsFromAnnouncedRound", "rejoin", 2, netx.FullMesh{}, 65},
		// A round whose admitted replicas had all detached never closed
		// (1 schedule in 90000 of rejoin's: seeds 0–9999 per cell).
		{"RoundWithNoAdmittedReplicaCloses", "rejoin", 4, netx.FullMesh{}, 9619},
		// An update from a replica admitted only from a later round
		// counted toward this one.
		{"UnadmittedUpdateDiscarded", "rejoin", 3, netx.FullMesh{}, 17},
		// A restarted replica re-applied a round its adopted reference
		// already held.
		{"ResumeDiscardsAdoptedRounds", "restart", 2, netx.FullMesh{}, 5},
		// One detach closed two rounds in map order (the seed fails only
		// on the map orders that put the later round first).
		{"ClosesInRoundOrder", "detach", 3, netx.FullMesh{}, 982},
		// The supervisor judged a replica's lag on progress read before
		// the frame that re-admitted it: detached at once after its rejoin.
		{"LagJudgedAfterTheFrame", "supervised", 2, netx.FullMesh{}, 0},
		// A restarted replica's copy counted its peers at round -1, and its
		// supervisor detached the survivor as soon as its own first update
		// arrived.
		{"ResumeCountsPeersCaughtUp", "supervised", 2, netx.FullMesh{}, 5},
	})
}

// TestExploreKnownRaces holds the two schedules whose references diverge
// without drops and need a wire-level join handshake to fix (ROADMAP,
// "Join handshake"). The checks run as written once the handshake lands.
func TestExploreKnownRaces(t *testing.T) {
	runExploreCases(t, true, []exploreCase{
		// A peer closes round 2 without the rejoiner before its rejoin
		// announcement (join 2) arrives; the rejoiner's round 2 counts
		// its own update.
		{"RejoinWhilePeerClosesRound", "rejoin", 2, netx.FullMesh{}, 3},
		// The replier's ref_state leaves out its open round 2 (join 3),
		// and the restarted replica never sees round 2's updates.
		{"RestartWhileRoundOpen", "restart", 2, netx.FullMesh{}, 0},
	})
}

// runExploreCases replays each case; a known race runs without the
// deadline and with the drop-free checks, and is skipped.
func runExploreCases(t *testing.T, known bool, cases []exploreCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := scenarioNamed(c.scenario)
			if known {
				t.Skipf("%s (%s n=%d %s seed %d): references diverge without drops; needs the join handshake in ROADMAP",
					c.name, c.scenario, c.n, c.topo.Name(), c.seed)
				sc.deadline, sc.quiet, sc.identical = false, true, true
			}
			if _, err := exploreOne(c.seed, c.n, c.topo, sc); err != nil {
				t.Fatal(err)
			}
		})
	}
}
