package core

import (
	"cmp"
	"slices"
	"time"

	"avgpipe/internal/tensor"
)

// protocol is the elastic-averaging round protocol of §3.2 as a single-
// threaded state machine with no IO, lock or clock (DESIGN.md §8,
// "Protocol core"): events go in, the rounds to close come out with
// their payloads in pipeline order. Time is an argument and never goes
// backwards. The Averager shell feeds it; explore_test.go drives it over
// a simulated network.
type protocol[P any] struct {
	n        int
	deadline time.Duration // how long a round may stay open (0 = forever)
	// live[p] marks the replicas taking part in rounds; liveFrom[p] is
	// the first round p counts toward, so a rejoining replica never joins
	// the quorum of a round it will not submit to.
	live     []bool
	liveN    int
	liveFrom []int
	// lastRound[p] is the newest round p submitted to (-1 before its
	// first); latestRound the newest across replicas.
	lastRound   []int
	latestRound int
	// open[r] holds round r's payloads by pipeline; the first arrival wins.
	open map[int]map[int]P
	// since[r] is when round r's deadline started: its first arrival, or
	// while it has none, when it was first awaited.
	since map[int]time.Time
	// Every round below floor is closed, and so is every round in closed:
	// an update for a closed round is discarded, never re-opens it.
	floor  int
	closed map[int]bool
	// mark is one past the highest round opened, closed or awaited: the
	// round a replica joining now is admitted from.
	mark int
}

// closeWhy records which arm of the settle rule closed a round.
type closeWhy int

const (
	closeQuorum   closeWhy = iota // every admitted replica reported
	closeDetach                   // a detach left only replicas that had reported
	closeDeadline                 // the deadline passed since the first arrival
	closeEmpty                    // awaited, never opened, deadline passed since the await
)

// closure is one closed round: the pipelines that reported, ascending,
// and their payloads in the same order.
type closure[P any] struct {
	round    int
	why      closeWhy
	from     []int
	payloads []P
	first    time.Time // the first arrival; zero for an empty round
}

func newProtocol[P any](n int) *protocol[P] {
	s := &protocol[P]{n: n, live: make([]bool, n), liveN: n, liveFrom: make([]int, n),
		lastRound: make([]int, n), latestRound: -1, open: make(map[int]map[int]P),
		since: make(map[int]time.Time), closed: make(map[int]bool)}
	for p := range s.live {
		s.live[p], s.lastRound[p] = true, -1
	}
	return s
}

// admitted reports whether replica p counts toward round r.
func (s *protocol[P]) admitted(p, r int) bool { return s.live[p] && s.liveFrom[p] <= r }

// complete reports whether every replica admitted to round r has
// reported to it — vacuously so once none is left. It compares sets,
// not counts: an update from a replica that has since detached must not
// stand in for an admitted replica's missing one.
func (s *protocol[P]) complete(r int, payloads map[int]P) bool {
	for p := range s.live {
		if _, ok := payloads[p]; !ok && s.admitted(p, r) {
			return false
		}
	}
	return true
}

func (s *protocol[P]) isClosed(r int) bool { return r < s.floor || s.closed[r] }

// arrive ingests pipeline p's payload for round, or discards it (ok
// false) when the round has closed or p is not admitted to it: counting
// a replica the round does not wait for could close it over another set
// than a peer that did not. stale counts the older rounds still open.
func (s *protocol[P]) arrive(now time.Time, p, round int, payload P) (cs []closure[P], ok bool, stale int) {
	if p < 0 || p >= s.n || s.isClosed(round) || !s.admitted(p, round) {
		return nil, false, 0
	}
	for r := range s.open {
		if r < round {
			stale++
		}
	}
	if s.open[round] == nil {
		s.open[round], s.since[round] = make(map[int]P), now
		s.mark = max(s.mark, round+1)
	}
	if _, dup := s.open[round][p]; !dup {
		s.open[round][p] = payload
	}
	s.lastRound[p] = max(s.lastRound[p], round)
	s.latestRound = max(s.latestRound, round)
	return s.settle(now), true, stale
}

// detach removes replica p from the rounds; a round that was waiting only
// on p closes over the updates that arrived. ok is false if p was not
// live.
func (s *protocol[P]) detach(now time.Time, p int) (cs []closure[P], ok bool) {
	if p < 0 || p >= s.n || !s.live[p] {
		return nil, false
	}
	s.live[p] = false
	s.liveN--
	cs = s.settle(now)
	for i := range cs {
		if cs[i].why == closeQuorum {
			cs[i].why = closeDetach
		}
	}
	return cs, true
}

// rejoin readmits a detached replica p from round join, or from the
// watermark when join < 0: a replica rejoining itself is admitted after
// every round open here, so no quorum grows. A peer's announcement
// carries the round the rejoiner admitted itself from, and it is taken
// as is, even below the watermark: the rejoiner submits every round from
// there on, so each copy waits for the same updates. ok is false if p
// was live.
func (s *protocol[P]) rejoin(p, join int) (int, bool) {
	if p < 0 || p >= s.n || s.live[p] {
		return 0, false
	}
	s.live[p] = true
	s.liveN++
	if join < 0 {
		join = s.mark
	}
	s.liveFrom[p] = join
	// It owes no update before its join round: count it as caught up to
	// there, or a supervisor comparing progress would see it as behind.
	s.lastRound[p] = max(s.lastRound[p], join-1)
	return join, true
}

// resume admits replica self, restarted onto a peer's reference state
// that holds every round below join: those close here unapplied, so
// their late updates are discarded rather than applied twice. self is
// admitted from join, or from the watermark if later rounds opened here
// already; that round, where self resumes training, is returned.
func (s *protocol[P]) resume(now time.Time, self, join int) ([]closure[P], int) {
	for s.floor < join {
		s.markClosed(s.floor)
	}
	join = max(join, s.mark)
	s.liveFrom[self] = join
	return s.settle(now), join
}

// await records that a caller waits for round r: once the deadline has
// passed since the await, a round that never opened closes empty.
func (s *protocol[P]) await(now time.Time, r int) {
	if _, ok := s.since[r]; !ok && !s.isClosed(r) {
		s.since[r] = now
		s.mark = max(s.mark, r+1)
	}
}

// settle is the one closing rule, and the tick event. A round closes
// when it is open and every replica admitted to it has reported; when it
// is open and the deadline has passed since its first arrival; or, empty,
// when it was awaited, never opened, and the deadline has passed since
// the await. Rounds close in ascending order, so an event closing
// several applies them in the same order on every replica.
func (s *protocol[P]) settle(now time.Time) []closure[P] {
	var cs []closure[P]
	for r, since := range s.since {
		c := closure[P]{round: r, why: closeEmpty}
		switch o := s.open[r]; {
		case o != nil && s.complete(r, o):
			c.why = closeQuorum
		case s.deadline <= 0 || now.Sub(since) < s.deadline:
			continue
		case o != nil:
			c.why = closeDeadline
		}
		cs = append(cs, c)
	}
	slices.SortFunc(cs, func(x, y closure[P]) int { return cmp.Compare(x.round, y.round) })
	for i := range cs {
		if o := s.open[cs[i].round]; o != nil {
			cs[i].first = s.since[cs[i].round]
			for p := range s.n {
				if v, ok := o[p]; ok {
					cs[i].from = append(cs[i].from, p)
					cs[i].payloads = append(cs[i].payloads, v)
				}
			}
		}
		s.markClosed(cs[i].round)
	}
	return cs
}

// markClosed records round r closed: the one place the floor advances.
func (s *protocol[P]) markClosed(r int) {
	delete(s.open, r)
	delete(s.since, r)
	s.closed[r] = true
	for s.closed[s.floor] {
		delete(s.closed, s.floor)
		s.floor++
	}
	s.mark = max(s.mark, r+1)
}

// nextDeadline is when settle would next close a round on time alone;
// ok is false when nothing can fall due.
func (s *protocol[P]) nextDeadline() (at time.Time, ok bool) {
	if s.deadline <= 0 {
		return at, false
	}
	for _, since := range s.since {
		if !ok || since.Before(at) {
			at, ok = since, true
		}
	}
	return at.Add(s.deadline), ok
}

// applyRound folds one closed round's deltas into ref in pipeline order,
// renormalized over the arrivals, so the result does not depend on the
// order they arrived in. moves is ref's tensor.ZeroAddMoves state,
// refreshed here.
func applyRound(ref []*tensor.Tensor, moves []bool, deltas [][]*tensor.Runs) {
	if len(deltas) == 0 {
		return
	}
	inv := float32(1 / float64(len(deltas)))
	for _, ds := range deltas {
		for i := range ref {
			ref[i].AxpyRuns(inv, ds[i], moves[i])
		}
	}
	for i, m := range moves {
		if m {
			moves[i] = ref[i].ZeroAddMoves()
		}
	}
}
