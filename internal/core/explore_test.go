package core

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	netx "avgpipe/internal/net"
	"avgpipe/internal/tensor"
)

// The seeded explorer drives one protocol core per simulated replica over
// a simulated network and checks the protocol's invariants after every
// step (DESIGN.md §8, "Protocol core"). Frames travel the real topology's
// routes (FirstHops, Relays, NextHopTo); each directed link is FIFO, as a
// TCP connection is, and the explorer interleaves links, replicas,
// fault-layer holds and deadline ticks in an order drawn from the seed.
// Every choice comes from one splitmix64 stream and time is virtual, so a
// seed replays exactly.

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
	// queued models the reference loop's queue: an update, detach or
	// rejoin frame a replica receives waits on its loopback link behind
	// the frames received before it, and a local detach (the trainer's
	// own, or a supervisor's) runs that queue first, as Detach does by
	// queueing behind it. A survivor may then detach a crashed replica
	// while the crashed replica's frames still wait in its queue.
	queued bool
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
	{name: "queued", detach: true, crash: true, queued: true, quiet: true, identical: true},
}

const (
	exploreRounds   = 6
	exploreDeadline = 20 * time.Millisecond
	exploreMaxSteps = 50000
)

type simKind int

const (
	simUpdate simKind = iota
	simDetach
	simRejoin
	simRefRequest
	simRefState
)

// simFrame is one frame on the simulated wire; origin is Frame.Replica.
type simFrame struct {
	kind   simKind
	origin int
	round  int
	to     int // ref_state destination
	deltas []*tensor.Runs
	state  *simReplica // ref_state: the replier's reference and bookkeeping
}

// simMsg is a frame on a link, stamped with the receiver's incarnation
// so a restarted replica never receives what was sent to its old self.
type simMsg struct {
	f     *simFrame
	epoch int
}

type simHeld struct {
	at   time.Time
	from int
	f    *simFrame
}

// simReplica is one simulated process: a protocol core, a tiny
// reference, the dist-mode trainer's round loop, and the explorer's
// bookkeeping.
type simReplica struct {
	proto *protocol[[]*tensor.Runs]
	ref   []*tensor.Tensor
	moves []bool
	up    bool
	epoch int
	// The trainer: the next round, whether it has submitted (and awaits)
	// it, whether it detached itself, and whether it restarted and waits
	// for a peer's reference state.
	round     int
	submitted bool
	detached  bool
	waiting   bool
	// applied is every round folded into ref, including those inherited
	// from a peer's reference state; hist hashes the closure history.
	applied map[int]bool
	hist    uint64
	// sent and ingested count local updates submitted and processed.
	sent, ingested int
	// live and from shadow the membership events this replica's core
	// processed, to judge admission independently of its quorum code.
	live []bool
	from []int
}

type explorer struct {
	seed  uint64
	rng   uint64
	n     int
	topo  netx.Topology
	sc    exploreScenario
	now   time.Time
	reps  []*simReplica
	links [][][]simMsg // links[from][to], FIFO; [r][r] is r's loopback
	held  []simHeld
	// crashed is the replica that crashed (-1 before), and detachPending
	// [s] marks survivor s still to detach it.
	crashed       int
	restarted     bool
	detachPending []bool
	// histBits maps a closure history to the reference bits it produced;
	// canon[r] is the first replica's history and bits after round r.
	histBits map[uint64]string
	canon    map[int]canonRound
	trace    uint64
	log      []string
	err      error
}

type canonRound struct {
	replica int
	hist    uint64
	bits    string
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

// exploreInit is every replica's starting reference; its −0 exercises the
// apply path that must touch the +0 gaps of a run-form delta.
func exploreInit() []*tensor.Tensor {
	return []*tensor.Tensor{tensor.FromSlice([]float32{0, float32(math.Copysign(0, -1)), 1}, 3)}
}

func newExplorer(seed uint64, n int, topo netx.Topology, sc exploreScenario) *explorer {
	x := &explorer{seed: seed, rng: seed, n: n, topo: topo, sc: sc, crashed: -1,
		detachPending: make([]bool, n), histBits: map[uint64]string{}, canon: map[int]canonRound{}}
	x.links = make([][][]simMsg, n)
	for i := range x.links {
		x.links[i] = make([][]simMsg, n)
	}
	x.reps = make([]*simReplica, n)
	for r := range x.reps {
		x.reps[r] = x.freshReplica()
	}
	return x
}

func (x *explorer) freshReplica() *simReplica {
	r := &simReplica{proto: newProtocol[[]*tensor.Runs](x.n), ref: exploreInit(), up: true,
		applied: map[int]bool{}, live: make([]bool, x.n), from: make([]int, x.n)}
	if x.sc.deadline {
		r.proto.deadline = exploreDeadline
	}
	r.moves = []bool{r.ref[0].ZeroAddMoves()}
	for p := range r.live {
		r.live[p] = true
	}
	return r
}

// send puts f on the link from → to.
func (x *explorer) send(from, to int, f *simFrame) {
	x.links[from][to] = append(x.links[from][to], simMsg{f: f, epoch: x.reps[to].epoch})
}

// broadcast sends a frame replica self originated to its first hops.
func (x *explorer) broadcast(self int, f *simFrame) {
	for _, q := range x.topo.FirstHops(self, x.n) {
		x.send(self, q, f)
	}
}

// route sends a frame directed at replica to one hop, as Mesh.Route does.
func (x *explorer) route(self, to int, f *simFrame) {
	hop := to
	if !slices.Contains(x.topo.Dials(self, x.n), to) {
		var err error
		if hop, err = x.topo.NextHopTo(self, x.n, to); err != nil {
			x.fail("no route %d → %d: %v", self, to, err)
			return
		}
	}
	x.send(self, hop, f)
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
		if r.up && !r.detached && !r.waiting {
			k++
		}
	}
	return k
}

// delta draws one update whose float sum depends on the fold order.
func (x *explorer) delta() []*tensor.Runs {
	palette := []float32{1e8, -1e8, 1, -1, 0.5, 3, 0, 0}
	d := tensor.New(3)
	for i := range d.Data() {
		d.Data()[i] = palette[x.intn(len(palette))]
	}
	return []*tensor.Runs{tensor.RunsOf(d)}
}

func refBits(ts []*tensor.Tensor) string {
	var b strings.Builder
	for _, t := range ts {
		for _, v := range t.Data() {
			fmt.Fprintf(&b, "%08x", math.Float32bits(v))
		}
	}
	return b.String()
}

// closed applies the rounds replica id's core closed and checks them.
func (x *explorer) closed(id int, cs []closure[[]*tensor.Runs]) {
	r := x.reps[id]
	for _, c := range cs {
		if r.applied[c.round] {
			x.fail("replica %d applied round %d twice", id, c.round)
		}
		r.applied[c.round] = true
		mask := 0
		for _, p := range c.from {
			mask |= 1 << p
		}
		applyRound(r.ref, r.moves, c.payloads)
		r.hist = exploreMix(r.hist ^ uint64(c.round)<<8 ^ uint64(mask))
		bits := refBits(r.ref)
		x.note("replica %d closed round %d over %b (%d): %s", id, c.round, mask, c.why, bits)
		x.hash(1, id, c.round, mask, int(c.why))
		if b, ok := x.histBits[r.hist]; ok && b != bits {
			x.fail("replica %d: the same closure history as a peer gave reference %s, not %s", id, bits, b)
		}
		x.histBits[r.hist] = bits
		if !x.sc.identical {
			continue
		}
		if cr, ok := x.canon[c.round]; !ok {
			x.canon[c.round] = canonRound{id, r.hist, bits}
		} else if cr.hist != r.hist || cr.bits != bits {
			x.fail("after round %d replica %d's reference is %s, replica %d's was %s", c.round, id, bits, cr.replica, cr.bits)
		}
	}
}

// deliver processes the head of the link from → to.
func (x *explorer) deliver(from, to int) {
	m := x.links[from][to][0]
	x.links[from][to] = x.links[from][to][1:]
	r, f := x.reps[to], m.f
	x.hash(2, from, to, int(f.kind), f.origin, f.round)
	if !r.up || m.epoch != r.epoch {
		return // sent to a process that has since died
	}
	if from != to && f.kind != simRefState {
		for _, q := range x.topo.Relays(to, x.n, f.origin, from) {
			x.send(to, q, f)
		}
		if x.sc.queued && f.kind != simRefRequest {
			x.send(to, to, f) // on to the reference loop's queue
			return
		}
	}
	switch f.kind {
	case simUpdate:
		cs, ok, _ := r.proto.arrive(x.now, f.origin, f.round, f.deltas)
		x.note("replica %d got update %d/%d from %d: accepted %v", to, f.origin, f.round, from, ok)
		if ok && !(r.live[f.origin] && r.from[f.origin] <= f.round) {
			x.fail("replica %d counted replica %d's update toward round %d, which does not admit it", to, f.origin, f.round)
		}
		if from == to && f.origin == to {
			r.ingested++
		}
		x.closed(to, cs)
	case simDetach:
		x.detachAt(to, f.origin)
	case simRejoin:
		if join, ok := r.proto.rejoin(f.origin, f.round); ok {
			r.live[f.origin], r.from[f.origin] = true, join
			x.note("replica %d readmits %d from round %d (announced %d)", to, f.origin, join, f.round)
		}
	case simRefRequest:
		if !r.waiting {
			st := &simReplica{ref: cloneTensors(r.ref), applied: map[int]bool{}, hist: r.hist}
			for k := range r.applied {
				st.applied[k] = true
			}
			x.note("replica %d answers %d's ref_request with join %d", to, f.origin, r.proto.mark)
			x.route(to, f.origin, &simFrame{kind: simRefState, origin: to, to: f.origin, round: r.proto.mark, state: st})
		}
	case simRefState:
		if f.to != to {
			x.route(to, f.to, f)
		} else if r.waiting {
			x.resume(to, f)
		}
	}
}

// localDetach is Detach on replica id: in the queued model it first runs
// every frame already waiting in id's reference-loop queue.
func (x *explorer) localDetach(id, p int) {
	for x.sc.queued && len(x.links[id][id]) > 0 {
		x.deliver(id, id)
	}
	x.detachAt(id, p)
}

func (x *explorer) detachAt(id, p int) {
	r := x.reps[id]
	cs, ok := r.proto.detach(x.now, p)
	if ok {
		r.live[p] = false
		x.note("replica %d detaches %d", id, p)
	}
	x.closed(id, cs)
}

// resume installs a peer's reference state on restarted replica id.
func (x *explorer) resume(id int, f *simFrame) {
	r := x.reps[id]
	r.ref = cloneTensors(f.state.ref)
	r.moves = []bool{r.ref[0].ZeroAddMoves()}
	r.applied, r.hist = f.state.applied, f.state.hist
	cs, join := r.proto.resume(x.now, id, f.round)
	r.from[id] = join
	x.note("replica %d resumes from %d's state, join %d (offered %d)", id, f.origin, join, f.round)
	x.closed(id, cs)
	r.waiting, r.round, r.submitted = false, join, false
	x.broadcast(id, &simFrame{kind: simRejoin, origin: id, round: join})
}

// step advances replica id's trainer: at a round's start it may detach,
// rejoin or crash, then submits (unless detached) and awaits the round;
// once the round closed it moves to the next.
func (x *explorer) step(id int) {
	r := x.reps[id]
	if r.submitted {
		r.round++
		r.submitted = false
		return
	}
	switch {
	case x.sc.detach && !r.detached && x.submitting() > 1 && x.coin(0.1):
		r.detached = true
		x.localDetach(id, id)
		x.broadcast(id, &simFrame{kind: simDetach, origin: id})
	case x.sc.rejoin && r.detached && x.coin(0.3):
		join, _ := r.proto.rejoin(id, -1)
		r.detached, r.live[id], r.from[id] = false, true, join
		x.note("replica %d rejoins from round %d", id, join)
		x.broadcast(id, &simFrame{kind: simRejoin, origin: id, round: join})
	case x.sc.crash && x.crashed < 0 && !x.relays(id) && !r.detached && x.submitting() > 1 && x.coin(0.05):
		x.crash(id)
		return
	}
	if !r.detached {
		f := &simFrame{kind: simUpdate, origin: id, round: r.round, deltas: x.delta()}
		switch {
		case x.sc.faults && x.coin(0.15):
			x.note("replica %d's update for round %d dropped", id, r.round)
		case x.sc.faults && x.coin(0.2):
			r.sent++
			x.held = append(x.held, simHeld{at: x.now.Add(time.Duration(3+x.intn(40)) * time.Millisecond), from: id, f: f})
		default:
			r.sent++
			x.send(id, id, f)
			x.broadcast(id, f)
		}
	}
	r.proto.await(x.now, r.round)
	r.submitted = true
}

func (x *explorer) crash(z int) {
	x.note("replica %d crashes", z)
	x.crashed = z
	x.reps[z].up = false
	x.held = slices.DeleteFunc(x.held, func(h simHeld) bool { return h.from == z })
	for s, r := range x.reps {
		x.detachPending[s] = s != z && r.up
	}
}

func (x *explorer) restart(z int) {
	x.note("replica %d restarts", z)
	x.restarted = true
	epoch := x.reps[z].epoch + 1
	r := x.freshReplica()
	r.epoch, r.waiting = epoch, true
	x.reps[z] = r
	x.broadcast(z, &simFrame{kind: simRefRequest, origin: z})
}

// inFlightFrom reports whether a frame replica z originated can still
// reach replica s. In the queued model a frame waiting in a reference-
// loop queue has arrived: s's own runs before its Detach.
func (x *explorer) inFlightFrom(z, s int) bool {
	for a := range x.n {
		for b := range x.n {
			if x.sc.queued && a == b {
				continue
			}
			for _, m := range x.links[a][b] {
				if m.f.kind != simRefState && m.f.origin == z && x.reaches(z, a, b, s) {
					return true
				}
			}
		}
	}
	return false
}

type simAction struct {
	kind int
	a, b int
}

const (
	actDeliver = iota
	actStep
	actSupervise
	actRestart
	actRelease
	actTick
)

func (x *explorer) actions() []simAction {
	var acts []simAction
	for a := range x.n {
		for b := range x.n {
			if len(x.links[a][b]) > 0 {
				acts = append(acts, simAction{actDeliver, a, b})
			}
		}
	}
	for id, r := range x.reps {
		if !r.up {
			continue
		}
		if !r.waiting && r.round < exploreRounds && (!r.submitted || r.proto.isClosed(r.round)) {
			acts = append(acts, simAction{actStep, id, 0})
		}
		if at, ok := r.proto.nextDeadline(); ok && !at.After(x.now) {
			acts = append(acts, simAction{actTick, id, 0})
		}
		if x.detachPending[id] && !x.inFlightFrom(x.crashed, id) {
			acts = append(acts, simAction{actSupervise, id, x.crashed})
		}
	}
	if z := x.crashed; z >= 0 && x.sc.restart && !x.restarted && !slices.Contains(x.detachPending, true) {
		acts = append(acts, simAction{actRestart, z, 0})
	}
	for i, h := range x.held {
		if !h.at.After(x.now) {
			acts = append(acts, simAction{actRelease, i, 0})
		}
	}
	return acts
}

// wake is the earliest future time a hold releases or a deadline falls
// due; ok is false when nothing is pending.
func (x *explorer) wake() (at time.Time, ok bool) {
	consider := func(t time.Time) {
		if !ok || t.Before(at) {
			at, ok = t, true
		}
	}
	for _, h := range x.held {
		consider(h.at)
	}
	for _, r := range x.reps {
		if t, due := r.proto.nextDeadline(); r.up && due {
			consider(t)
		}
	}
	return at, ok
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
		acts := x.actions()
		if len(acts) == 0 {
			at, ok := x.wake()
			if !ok {
				break
			}
			x.now = at
			continue
		}
		act := acts[x.intn(len(acts))]
		x.hash(0, act.kind, act.a, act.b)
		switch act.kind {
		case actDeliver:
			x.deliver(act.a, act.b)
		case actStep:
			x.step(act.a)
		case actSupervise:
			x.detachPending[act.a] = false
			x.localDetach(act.a, act.b)
		case actRestart:
			x.restart(act.a)
		case actRelease:
			h := x.held[act.a]
			x.held = slices.Delete(x.held, act.a, act.a+1)
			if x.reps[h.from].up {
				x.send(h.from, h.from, h.f)
				x.broadcast(h.from, h.f)
			}
		case actTick:
			x.closed(act.a, x.reps[act.a].proto.settle(x.now))
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
		if r.waiting || r.round < exploreRounds {
			x.fail("stuck: replica %d waits on round %d (closed %v)", id, r.round, r.proto.isClosed(r.round))
			return
		}
		if !x.sc.quiet {
			continue
		}
		if len(r.proto.open) > 0 {
			x.fail("replica %d left %d rounds open", id, len(r.proto.open))
		}
		if r.sent != r.ingested {
			x.fail("replica %d sent %d updates and applied %d", id, r.sent, r.ingested)
		}
		if b := refBits(r.ref); bits == "" || !x.sc.identical {
			bits = b
		} else if b != bits {
			x.fail("final references differ: replica %d has %s, another %s", id, b, bits)
		}
	}
}

// exploreTopologies is the fabric set: N ∈ {2, 3, 4} × mesh, ring and
// hierarchical groups of 2.
func exploreTopologies() []netx.Topology {
	return []netx.Topology{netx.FullMesh{}, netx.Ring{}, netx.Hierarchical{Group: 2}}
}

// exploreSeedCount is how many seeds each scenario × N × topology cell
// runs: a fixed tier-1 budget, widened by AVGPIPE_EXPLORE_SEEDS (make
// faults sets it).
func exploreSeedCount(t *testing.T) int {
	s := os.Getenv("AVGPIPE_EXPLORE_SEEDS")
	if s == "" {
		return 150
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		t.Fatalf("AVGPIPE_EXPLORE_SEEDS %q: want a positive seed count", s)
	}
	return v
}

func exploreOne(seed uint64, n int, topo netx.Topology, sc exploreScenario) (uint64, error) {
	x := newExplorer(seed, n, topo, sc)
	err := x.run()
	return x.trace, err
}

// TestExploreProtocol runs every scenario over N ∈ {2,3,4} × mesh, ring
// and hier, a fixed seed set per cell.
func TestExploreProtocol(t *testing.T) {
	seeds := exploreSeedCount(t)
	for _, sc := range exploreScenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			for n := 2; n <= 4; n++ {
				for _, topo := range exploreTopologies() {
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

// TestExploreDeterminism: a seed replays to the identical trace.
func TestExploreDeterminism(t *testing.T) {
	sc := scenarioNamed("faults")
	for seed := range uint64(20) {
		a, errA := exploreOne(seed, 4, netx.Hierarchical{Group: 2}, sc)
		b, errB := exploreOne(seed, 4, netx.Hierarchical{Group: 2}, sc)
		if a != b || fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("seed %d: traces %x and %x (errors %v, %v)", seed, a, b, errA, errB)
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
// the first seed that failed without it.
func TestExplorePinnedSeeds(t *testing.T) {
	for _, c := range []exploreCase{
		// Completeness compared counts: a replica's update, then its
		// detach, closed a round still missing a live replica's update.
		{"DetachedUpdateStandsInForNoOne", "detach", 2, netx.FullMesh{}, 138},
		{"CrashedUpdateStandsInForNoOne", "crash", 2, netx.FullMesh{}, 19},
		// A peer readmitted a rejoiner from its own, later watermark
		// instead of the announced round, and a detached replica then
		// waited forever on a round nobody it admitted would submit to.
		{"RejoinAdmitsFromAnnouncedRound", "rejoin", 2, netx.FullMesh{}, 46},
		// A round whose admitted replicas had all detached never closed.
		{"RoundWithNoAdmittedReplicaCloses", "rejoin", 4, netx.Hierarchical{Group: 2}, 1178},
		// An update from a replica admitted only from a later round
		// counted toward this one.
		{"UnadmittedUpdateDiscarded", "rejoin", 2, netx.FullMesh{}, 108},
		// A restarted replica re-applied a round its adopted reference
		// already held.
		{"ResumeDiscardsAdoptedRounds", "restart", 2, netx.FullMesh{}, 12},
		// One detach closed two rounds in map order (the seed fails only
		// on the map orders that put the later round first).
		{"ClosesInRoundOrder", "detach", 4, netx.FullMesh{}, 175},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := exploreOne(c.seed, c.n, c.topo, scenarioNamed(c.scenario)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExploreKnownRaces holds the two schedules whose references diverge
// without drops and need a wire-level join handshake to fix (ROADMAP,
// "Join handshake"). The checks run as written once the handshake lands.
func TestExploreKnownRaces(t *testing.T) {
	for _, c := range []exploreCase{
		// A peer closes round 4 without the rejoiner before its rejoin
		// announcement (join 4) arrives; the rejoiner's round 4 counts
		// its own update.
		{"RejoinWhilePeerClosesRound", "rejoin", 2, netx.FullMesh{}, 4},
		// The replier's ref_state leaves out its open round 1 (join 2),
		// and the restarted replica never sees round 1's updates.
		{"RestartWhileRoundOpen", "restart", 2, netx.FullMesh{}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Skipf("%s (%s n=%d %s seed %d): references diverge without drops; needs the join handshake in ROADMAP",
				c.name, c.scenario, c.n, c.topo.Name(), c.seed)
			sc := scenarioNamed(c.scenario)
			sc.deadline, sc.quiet, sc.identical = false, true, true
			if _, err := exploreOne(c.seed, c.n, c.topo, sc); err != nil {
				t.Fatal(err)
			}
		})
	}
}
