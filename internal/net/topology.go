package net

import (
	"fmt"
	"sort"

	"avgpipe/internal/cluster"
)

// Topology shapes an averaging fabric behind the Transport seam: which
// replica pairs hold connections, where a replica's own frames go
// first, and how intermediate replicas relay them so every broadcast
// still reaches all N reference copies.
//
// The contract every implementation (and the conformance suite) holds:
//
//   - Connections: replica p dials exactly Dials(p, n); the accept side
//     is its mirror image, so the directed connection graph is a pure
//     function of (topology, n) and formation stays leaderless.
//   - Dissemination: a frame originated by replica o is sent to
//     FirstHops(o, n); every receiver forwards it to Relays(self, n, o,
//     from). Together these must deliver the frame to every replica
//     except o exactly once — no duplicates (the averager's per-round
//     accumulators would tolerate them, but the wire should not pay for
//     them) and no loops.
//   - Routing: a frame directed at one replica travels hop-by-hop along
//     NextHopTo until it arrives; every hop must be in the sender's
//     dial set.
//
// Deltas keep their origin identity end to end (Frame.Replica), so the
// averager's deterministic pipeline-order reduction — and with it
// detach/rejoin renormalization and bitwise reproducibility — is
// untouched by the choice of topology; only the frame flow changes.
type Topology interface {
	// Name is the topology's wire name ("mesh", "ring", "hier"), carried
	// in the mesh handshake so mis-configured jobs fail at formation.
	Name() string
	// Validate rejects topology parameters that cannot address an
	// n-replica job.
	Validate(n int) error
	// Dials returns the peer ids replica self opens outbound
	// connections to, in ascending order.
	Dials(self, n int) []int
	// FirstHops returns the peers replica self sends its own originated
	// frames to (a subset of Dials).
	FirstHops(self, n int) []int
	// Relays returns the peers self forwards a frame to, given the
	// frame's origin replica and the peer it arrived from (a subset of
	// Dials; empty for frames self must not relay).
	Relays(self, n, origin, from int) []int
	// NextHopTo returns the peer a frame directed at replica to should
	// be sent through (to itself when directly connected).
	NextHopTo(self, n, to int) (int, error)
}

// AcceptsFrom returns the peer ids replica self accepts inbound
// connections from under t: the mirror image of the dial sets. The
// formation handshake sizes its accept loop with this.
func AcceptsFrom(t Topology, self, n int) []int {
	var ids []int
	for q := 0; q < n; q++ {
		if q == self {
			continue
		}
		for _, d := range t.Dials(q, n) {
			if d == self {
				ids = append(ids, q)
				break
			}
		}
	}
	return ids
}

// TopologyByName resolves a -topology flag value. group is the
// hierarchical group size (0 = ceil(sqrt(n)) at formation).
func TopologyByName(name string, group int) (Topology, error) {
	switch name {
	case "", "mesh", "full":
		return FullMesh{}, nil
	case "ring":
		return Ring{}, nil
	case "hier", "hierarchical":
		return Hierarchical{Group: group}, nil
	default:
		return nil, fmt.Errorf("net: unknown topology %q (want mesh, ring, or hier)", name)
	}
}

// FullMesh is the reference topology: every ordered replica pair owns a
// connection and every broadcast is sent directly to all peers, with no
// relaying. O(N²) connections, one hop everywhere — the seed behavior,
// extracted.
type FullMesh struct{}

func (FullMesh) Name() string         { return "mesh" }
func (FullMesh) Validate(n int) error { return nil }
func (FullMesh) Dials(self, n int) []int {
	ids := make([]int, 0, n-1)
	for q := 0; q < n; q++ {
		if q != self {
			ids = append(ids, q)
		}
	}
	return ids
}
func (m FullMesh) FirstHops(self, n int) []int          { return m.Dials(self, n) }
func (FullMesh) Relays(self, n, origin, from int) []int { return nil }
func (FullMesh) NextHopTo(self, n, to int) (int, error) { return to, nil }

// Ring connects replica r to its successor (r+1) mod n only: O(N)
// connections. A frame travels around the ring — the origin sends to
// its successor, every replica relays its predecessor's frames onward,
// and the frame stops at the replica before its origin. Per round each
// link carries the N−1 foreign updates, so bandwidth per link is flat
// in N while the connection count drops from O(N²) to N.
type Ring struct{}

func (Ring) Name() string { return "ring" }

func (Ring) Validate(n int) error {
	if n < 1 {
		return fmt.Errorf("net: ring needs at least 1 replica, got %d", n)
	}
	return nil
}

func (Ring) Dials(self, n int) []int {
	if n < 2 {
		return nil
	}
	return []int{(self + 1) % n}
}

func (r Ring) FirstHops(self, n int) []int { return r.Dials(self, n) }

func (Ring) Relays(self, n, origin, from int) []int {
	if n < 2 || origin == self {
		return nil
	}
	// Frames only ever arrive from the predecessor; relay onward unless
	// the successor is where the frame began.
	if from != (self+n-1)%n {
		return nil
	}
	next := (self + 1) % n
	if next == origin {
		return nil
	}
	return []int{next}
}

func (Ring) NextHopTo(self, n, to int) (int, error) {
	if n < 2 || to == self {
		return 0, fmt.Errorf("net: ring has no route from %d to %d", self, to)
	}
	return (self + 1) % n, nil
}

// Hierarchical is two-level averaging: contiguous groups of Group
// replicas, the lowest id of each group the leader (cluster.LeaderOf).
// Members connect only to their leader; leaders connect to their
// members and to every other leader. A member's update flows up to its
// leader, across the leader clique, and back down to every other
// member — two hops up, one across, one down — giving O(N + (N/g)²)
// connections, which is O(N) at the default g = ceil(sqrt N).
type Hierarchical struct {
	// Group is the group size (member count per leader, leader
	// included); 0 selects cluster.DefaultGroupSize(n).
	Group int
}

func (Hierarchical) Name() string { return "hier" }

func (h Hierarchical) Validate(n int) error {
	if h.Group < 0 {
		return fmt.Errorf("net: hierarchical group size %d is negative", h.Group)
	}
	if h.Group > 0 && h.Group > n {
		return fmt.Errorf("net: hierarchical group size %d exceeds job size %d", h.Group, n)
	}
	return nil
}

// size resolves the effective group size for an n-replica job.
func (h Hierarchical) size(n int) int {
	if h.Group > 0 {
		return h.Group
	}
	return cluster.DefaultGroupSize(n)
}

func (h Hierarchical) Dials(self, n int) []int {
	g := h.size(n)
	if !cluster.IsLeader(self, g) {
		return []int{cluster.LeaderOf(self, g)}
	}
	ids := cluster.Members(self, n, g)
	for _, l := range cluster.Leaders(n, g) {
		if l != self {
			ids = append(ids, l)
		}
	}
	sort.Ints(ids)
	return ids
}

func (h Hierarchical) FirstHops(self, n int) []int { return h.Dials(self, n) }

func (h Hierarchical) Relays(self, n, origin, from int) []int {
	g := h.size(n)
	if origin == self || !cluster.IsLeader(self, g) {
		return nil // members never relay
	}
	if cluster.LeaderOf(origin, g) == self {
		// One of our members originated this frame (it arrives directly
		// from them): fan it across to the other leaders and down to the
		// rest of our group.
		if from != origin {
			return nil
		}
		ids := make([]int, 0, g)
		for _, m := range cluster.Members(self, n, g) {
			if m != origin {
				ids = append(ids, m)
			}
		}
		for _, l := range cluster.Leaders(n, g) {
			if l != self {
				ids = append(ids, l)
			}
		}
		sort.Ints(ids)
		return ids
	}
	// A foreign group's frame, delivered by that group's leader: fan it
	// down to our members only.
	if from != cluster.LeaderOf(origin, g) {
		return nil
	}
	return cluster.Members(self, n, g)
}

func (h Hierarchical) NextHopTo(self, n, to int) (int, error) {
	if to == self {
		return 0, fmt.Errorf("net: no route from %d to itself", self)
	}
	g := h.size(n)
	if !cluster.IsLeader(self, g) {
		return cluster.LeaderOf(self, g), nil
	}
	if cluster.LeaderOf(to, g) == self || cluster.IsLeader(to, g) {
		return to, nil // own member or a fellow leader: direct
	}
	return cluster.LeaderOf(to, g), nil
}
