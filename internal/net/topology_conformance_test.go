package net_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/core"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
)

// The topology conformance suite runs one behavioral table — round
// completion, mid-round detach, rejoin re-admission, deadline expiry —
// against every Topology over both transports, each case driven by real
// Averagers so what is conformed is the full submit→disseminate→reduce
// path, not the frame plumbing alone. Every case's oracle is a
// single-process averager fed the identical sequence: whatever fabric
// carries the frames, the N reference copies must land bit-identical to
// the seed's in-memory behavior.

// topoHarness is one formed job: n averagers over n meshes, each with
// its own single-tensor parameter set, plus the single-process oracle
// the distributed outcome is compared against.
type topoHarness struct {
	n      int
	avgs   []*core.Averager
	params [][]*nn.Param
	// oracle is a local n-pipeline averager fed the same sequence.
	oracle       *core.Averager
	oracleParams [][]*nn.Param
}

func newTopoHarness(t *testing.T, tcp bool, topo netx.Topology, n int, deadline time.Duration) *topoHarness {
	t.Helper()
	_, meshes := netx.FormTestJob(t, tcp, topo, n)
	h := &topoHarness{n: n}
	h.avgs = make([]*core.Averager, n)
	h.params = make([][]*nn.Param, n)
	h.oracleParams = make([][]*nn.Param, n)
	for p := 0; p < n; p++ {
		h.params[p] = []*nn.Param{nn.NewParam("w", tensor.Zeros(8))}
		h.oracleParams[p] = []*nn.Param{nn.NewParam("w", tensor.Zeros(8))}
		h.avgs[p] = core.NewAveragerObs(n, h.params[p], obs.NewRegistry())
		h.avgs[p].AttachMesh(meshes[p])
		if deadline > 0 {
			h.avgs[p].SetRoundDeadline(deadline)
		}
	}
	h.oracle = core.NewAveragerObs(n, h.oracleParams[0], obs.NewRegistry())
	if deadline > 0 {
		h.oracle.SetRoundDeadline(deadline)
	}
	t.Cleanup(func() {
		for _, a := range h.avgs {
			a.Close()
		}
		h.oracle.Close()
	})
	return h
}

// nudge gives pipeline p's weights a deterministic per-round change on
// both sides of the comparison.
func (h *topoHarness) nudge(p, r int) {
	d := float32(p+1) * 0.01 * float32(r+1)
	h.params[p][0].W.AxpyInPlace(d, tensor.Ones(8))
	h.oracleParams[p][0].W.AxpyInPlace(d, tensor.Ones(8))
}

// oracleSubmit feeds pipeline p's round-r update to the oracle.
func (h *topoHarness) oracleSubmit(t *testing.T, p, r int) {
	t.Helper()
	if err := h.oracle.SubmitContext(context.Background(), p, r, h.oracleParams[p]); err != nil {
		t.Fatalf("oracle: pipeline %d round %d: %v", p, r, err)
	}
}

// checkRefs asserts all n distributed reference copies are bit-identical
// to each other and to the oracle's.
func (h *topoHarness) checkRefs(t *testing.T, label string) {
	t.Helper()
	want := h.oracle.Reference()[0].Data()
	for p := 0; p < h.n; p++ {
		got := h.avgs[p].Reference()[0].Data()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: replica %d ref[%d] = %v, oracle %v", label, p, i, got[i], want[i])
			}
		}
	}
}

// submitAll has every live replica submit round r concurrently and wait
// for the round to close everywhere; the oracle replays the same round
// inline.
func (h *topoHarness) submitAll(t *testing.T, r int, live func(p int) bool) {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < h.n; p++ {
		if !live(p) {
			continue
		}
		h.nudge(p, r)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if err := h.avgs[p].SubmitContext(context.Background(), p, r, h.params[p]); err != nil {
				t.Errorf("replica %d round %d: %v", p, r, err)
			}
		}(p)
	}
	wg.Wait()
	for p := 0; p < h.n; p++ {
		if live(p) {
			h.oracleSubmit(t, p, r)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for p := 0; p < h.n; p++ {
		if err := h.avgs[p].WaitRound(ctx, r); err != nil {
			t.Fatalf("replica %d: round %d never closed: %v", p, r, err)
		}
	}
	if err := h.oracle.WaitRound(ctx, r); err != nil {
		t.Fatalf("oracle: round %d never closed: %v", r, err)
	}
}

// conformanceTopologies is the fabric set the behavioral table runs
// against (n=4: hier resolves to groups of 2 — two leaders).
func conformanceTopologies() map[string]netx.Topology {
	return map[string]netx.Topology{
		"mesh": netx.FullMesh{},
		"ring": netx.Ring{},
		"hier": netx.Hierarchical{},
	}
}

// conformanceFabrics maps each transport to FormTestJob's tcp flag.
func conformanceFabrics() map[string]bool {
	return map[string]bool{"inproc": false, "tcp": true}
}

// TestTopologyConformance is the behavioral table: every case runs
// against all three topologies over both transports.
func TestTopologyConformance(t *testing.T) {
	const n = 4
	cases := []struct {
		name string
		run  func(t *testing.T, tcp bool, topo netx.Topology)
	}{
		{"RoundCompletes", func(t *testing.T, tcp bool, topo netx.Topology) {
			// Three full rounds: every reference copy applies all N deltas
			// in pipeline order and lands bit-identical to the oracle.
			h := newTopoHarness(t, tcp, topo, n, 0)
			for r := 0; r < 3; r++ {
				h.submitAll(t, r, func(int) bool { return true })
			}
			h.checkRefs(t, "round-completes")
		}},
		{"DetachMidRound", func(t *testing.T, tcp bool, topo netx.Topology) {
			// Replica n-1 detaches while round 0 is open: the round closes
			// over the remaining live set, renormalized to 1/(n-1), on every
			// replica — including the detached one, which still hosts its
			// reference copy.
			h := newTopoHarness(t, tcp, topo, n, 0)
			var wg sync.WaitGroup
			for p := 0; p < n-1; p++ {
				h.nudge(p, 0)
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					if err := h.avgs[p].SubmitContext(context.Background(), p, 0, h.params[p]); err != nil {
						t.Errorf("replica %d: %v", p, err)
					}
				}(p)
			}
			wg.Wait()
			h.avgs[n-1].Detach(n - 1)
			for p := 0; p < n-1; p++ {
				h.oracleSubmit(t, p, 0)
			}
			h.oracle.Detach(n - 1)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for p := 0; p < n; p++ {
				if err := h.avgs[p].WaitRound(ctx, 0); err != nil {
					t.Fatalf("replica %d: round 0 never closed after detach: %v", p, err)
				}
			}
			if err := h.oracle.WaitRound(ctx, 0); err != nil {
				t.Fatalf("oracle: %v", err)
			}
			h.checkRefs(t, "detach-mid-round")
			for p := 0; p < n; p++ {
				if h.avgs[p].Live(n - 1) {
					t.Fatalf("replica %d still counts %d live after detach", p, n-1)
				}
			}
		}},
		{"RejoinReadmits", func(t *testing.T, tcp bool, topo netx.Topology) {
			// A detached replica rejoins: peers re-admit it from its join
			// round on, and the next round closes over all N again.
			h := newTopoHarness(t, tcp, topo, n, 0)
			h.avgs[n-1].Detach(n - 1)
			h.oracle.Detach(n - 1)
			h.submitAll(t, 0, func(p int) bool { return p < n-1 })
			h.avgs[n-1].Rejoin(n-1, h.params[n-1])
			h.oracle.Rejoin(n-1, h.oracleParams[n-1])
			// Wait until every replica has re-admitted n-1 before round 1.
			deadline := time.Now().Add(10 * time.Second)
			for p := 0; p < n; p++ {
				for !h.avgs[p].Live(n - 1) {
					if time.Now().After(deadline) {
						t.Fatalf("replica %d never re-admitted %d", p, n-1)
					}
					time.Sleep(time.Millisecond)
				}
			}
			h.submitAll(t, 1, func(int) bool { return true })
			h.checkRefs(t, "rejoin-readmits")
		}},
		{"DeadlineDiscardsStale", func(t *testing.T, tcp bool, topo netx.Topology) {
			// Replica n-1 stays live but silent: the round deadline closes
			// round 0 over the partial set on every replica, and the
			// straggler's late update is discarded — no reference copy
			// moves again.
			h := newTopoHarness(t, tcp, topo, n, 400*time.Millisecond)
			h.submitAll(t, 0, func(p int) bool { return p < n-1 })
			h.checkRefs(t, "deadline-partial")
			// The stale update arrives after the round closed.
			h.nudge(n-1, 0)
			if err := h.avgs[n-1].SubmitContext(context.Background(), n-1, 0, h.params[n-1]); err != nil {
				t.Fatal(err)
			}
			h.oracleSubmit(t, n-1, 0)
			time.Sleep(200 * time.Millisecond) // let the late frame disseminate
			h.checkRefs(t, "deadline-late-discard")
		}},
	}
	for fabName, tcp := range conformanceFabrics() {
		for topoName, topo := range conformanceTopologies() {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/%s/%s", fabName, topoName, tc.name), func(t *testing.T) {
					tc.run(t, tcp, topo)
				})
			}
		}
	}
}

// TestTopologyConnectionCounts asserts the headline connection scaling
// at N=8: the ring forms exactly N directed connections, hierarchical
// stays O(N), and the mesh pays N(N-1).
func TestTopologyConnectionCounts(t *testing.T) {
	const n = 8
	counts := map[string]int{}
	for name, topo := range conformanceTopologies() {
		_, meshes := netx.FormTestJob(t, false, topo, n)
		total := 0
		for _, m := range meshes {
			total += len(m.Peers())
		}
		counts[name] = total
	}
	if counts["mesh"] != n*(n-1) {
		t.Errorf("mesh: %d connections, want %d", counts["mesh"], n*(n-1))
	}
	if counts["ring"] != n {
		t.Errorf("ring: %d connections, want %d", counts["ring"], n)
	}
	if counts["hier"] > 3*n {
		t.Errorf("hier: %d connections, want O(N) (≤ %d)", counts["hier"], 3*n)
	}
	if counts["ring"] >= counts["mesh"] || counts["hier"] >= counts["mesh"] {
		t.Errorf("sparse fabrics not sparser than the mesh: %v", counts)
	}
}

// TestFormationNamesMismatchedPeers pins the formation diagnostics: a
// geometry or topology mismatch, or a replica of an in-process job
// failing, must name the offending replica ids, not just counts.
func TestFormationNamesMismatchedPeers(t *testing.T) {
	t.Run("job-size", func(t *testing.T) {
		// Replica 0 believes n=2; replica 1 believes n=3 and dials 0.
		trs, lns := netx.BindFabric(t, false, 3)
		defer lns[1].Close()
		defer lns[2].Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		go netx.FormTopologyOn(ctx, trs[1], lns[1], netx.FullMesh{}, 1, map[int]string{0: "replica-0", 2: "replica-2"})
		_, err := netx.FormTopologyOn(ctx, trs[0], lns[0], netx.FullMesh{}, 0, map[int]string{1: "replica-1"})
		if err == nil {
			t.Fatal("mismatched job size accepted")
		}
		for _, want := range []string{"replica 1 believes the job has 3 replicas", "replica 0 has 2", "[1]"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error does not name the mismatch (%q missing): %v", want, err)
			}
		}
	})
	t.Run("accept-set", func(t *testing.T) {
		// Replica 0 forms a ring (accepts only its predecessor, 2);
		// replica 1 runs a full mesh and dials everyone — its hello at
		// replica 0 must be refused by name.
		trs, lns := netx.BindFabric(t, false, 3)
		defer lns[1].Close()
		defer lns[2].Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		go netx.FormTopologyOn(ctx, trs[1], lns[1], netx.FullMesh{}, 1, map[int]string{0: "replica-0", 2: "replica-2"})
		_, err := netx.FormTopologyOn(ctx, trs[0], lns[0], netx.Ring{}, 0, map[int]string{1: "replica-1", 2: "replica-2"})
		if err == nil {
			t.Fatal("out-of-topology hello accepted")
		}
		for _, want := range []string{"hello from replica 1", "replica 0 only accepts", "[2]", "ring"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error does not name the offender (%q missing): %v", want, err)
			}
		}
	})
	t.Run("topology-fingerprint", func(t *testing.T) {
		// Both replicas of a 2-job run sparse fabrics, but different ones:
		// the group hello cross-check must name both fingerprints.
		trs, lns := netx.BindFabric(t, false, 2)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		go netx.FormTopologyOn(ctx, trs[1], lns[1], netx.Hierarchical{Group: 2}, 1, map[int]string{0: "replica-0"})
		_, err := netx.FormTopologyOn(ctx, trs[0], lns[0], netx.Ring{}, 0, map[int]string{1: "replica-1"})
		if err == nil {
			t.Fatal("mismatched topologies accepted")
		}
		for _, want := range []string{"replica 1 runs topology hier", "replica 0 runs ring"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error does not name both fingerprints (%q missing): %v", want, err)
			}
		}
	})
	t.Run("mesh-vs-ring", func(t *testing.T) {
		// At N=2 the full mesh and the ring make the same connections, so
		// only the handshake's fingerprint tells them apart: both sides
		// must fail at once, each naming both fingerprints.
		trs, lns := netx.BindFabric(t, false, 2)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		topos := []netx.Topology{netx.FullMesh{}, netx.Ring{}}
		errs := make([]error, 2)
		took := make([]time.Duration, 2)
		var wg sync.WaitGroup
		for i, topo := range topos {
			wg.Add(1)
			go func(i int, topo netx.Topology) {
				defer wg.Done()
				start := time.Now()
				m, err := netx.FormTopologyOn(ctx, trs[i], lns[i], topo, i, map[int]string{1 - i: fmt.Sprintf("replica-%d", 1-i)})
				errs[i], took[i] = err, time.Since(start)
				if m != nil {
					m.Close()
				}
			}(i, topo)
		}
		wg.Wait()
		for i, err := range errs {
			if err == nil {
				t.Errorf("replica %d (%s) formed with a %s peer", i, topos[i].Name(), topos[1-i].Name())
				continue
			}
			if took[i] > time.Second {
				t.Errorf("replica %d took %v to fail, want under 1s: %v", i, took[i], err)
			}
			for _, want := range []string{
				fmt.Sprintf("replica %d runs topology %s", 1-i, topos[1-i].Name()),
				fmt.Sprintf("replica %d runs %s", i, topos[i].Name()),
			} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("replica %d: error does not name both fingerprints (%q missing): %v", i, want, err)
				}
			}
		}
	})
	t.Run("failed-replica", func(t *testing.T) {
		// One replica that cannot form fails the whole in-process job at
		// once, by name, and leaves no listener bound.
		trs, lns := netx.BindFabric(t, false, 3)
		lns[1].Close() // replica 1 can accept no peer
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		meshes, err := netx.FormJob(ctx, trs, lns, netx.FullMesh{})
		if err == nil || !strings.Contains(err.Error(), "replica 1") {
			t.Fatalf("FormJob with a dead replica: meshes %v, err %v; want an error naming replica 1", meshes, err)
		}
		if ctx.Err() != nil {
			t.Fatal("FormJob waited out the deadline instead of cancelling the other replicas")
		}
		for i, ln := range lns {
			l, err := trs[i].Listen(ln.Addr())
			if err != nil {
				t.Errorf("replica %d's listener still bound after the failed formation: %v", i, err)
				continue
			}
			l.Close()
		}
	})
}

// handshake builds the frame a mesh dialer opens a connection with, for
// hand-dialed connections: sender from, session epoch, fingerprint gh.
func handshake(t *testing.T, from int, epoch uint32, gh netx.GroupHello) *netx.Frame {
	t.Helper()
	blob, err := netx.AppendGroupHello(nil, gh)
	if err != nil {
		t.Fatal(err)
	}
	return &netx.Frame{Type: netx.FrameGroupHello, Replica: uint32(from), Round: epoch, Blob: blob}
}

// handDial opens a connection to addr that sends f, and reports whether
// the mesh listening there admitted it (its inbound handler, which
// writes to inbound, fired) or refused it (closed the connection).
func handDial(t *testing.T, tr netx.Transport, addr string, f *netx.Frame, inbound <-chan int) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := tr.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(ctx, f); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		_, err := c.Recv(ctx)
		closed <- err
	}()
	select {
	case id := <-inbound:
		if id != int(f.Replica) {
			t.Fatalf("inbound handler fired for replica %d, dialed as %d", id, f.Replica)
		}
		return true
	case err := <-closed:
		if !errors.Is(err, netx.ErrClosed) {
			t.Fatalf("handshake neither admitted nor refused: %v", err)
		}
		return false
	}
}

// TestSelfHealAdmission drives the accept loop EnableSelfHeal keeps
// running with hand-dialed handshakes: admission checks the sender's
// place in the topology and its fingerprint on every topology, and
// moves each peer's session epoch forward, with epoch 0 as the reset.
func TestSelfHealAdmission(t *testing.T) {
	heal := func(t *testing.T, topo netx.Topology, n int) ([]netx.Transport, *netx.Mesh, chan int) {
		trs, meshes := netx.FormTestJob(t, false, topo, n)
		peers := map[int]string{}
		for id, m := range meshes[1:] {
			peers[id+1] = m.Addr()
		}
		if err := meshes[0].EnableSelfHeal(netx.SelfHealConfig{Transport: trs[0], Peers: peers}); err != nil {
			t.Fatal(err)
		}
		inbound := make(chan int, 1)
		meshes[0].SetInboundHandler(func(id int, c netx.Conn) { inbound <- id })
		return trs, meshes[0], inbound
	}
	t.Run("mesh", func(t *testing.T) {
		trs, m, inbound := heal(t, netx.FullMesh{}, 2)
		mesh := netx.GroupHello{Topology: "mesh", N: 2, Codecs: netx.AllCodecsMask()}
		for _, c := range []struct {
			name  string
			epoch uint32
			gh    netx.GroupHello
			admit bool
		}{
			{"newer epoch", 2, mesh, true},
			{"stale epoch", 1, mesh, false},
			{"same epoch", 2, mesh, false},
			{"epoch 0 resets", 0, mesh, true},
			{"wrong fingerprint", 3, netx.GroupHello{Topology: "ring", N: 2, Codecs: netx.AllCodecsMask()}, false},
			{"wrong job size", 3, netx.GroupHello{Topology: "mesh", N: 3, Codecs: netx.AllCodecsMask()}, false},
			{"after the reset", 1, mesh, true},
		} {
			if got := handDial(t, trs[0], m.Addr(), handshake(t, 1, c.epoch, c.gh), inbound); got != c.admit {
				t.Errorf("%s (epoch %d, %s n=%d): admitted %v, want %v", c.name, c.epoch, c.gh.Topology, c.gh.N, got, c.admit)
			}
		}
	})
	t.Run("ring", func(t *testing.T) {
		// Replica 0 of a 3-ring accepts only its predecessor, replica 2.
		trs, m, inbound := heal(t, netx.Ring{}, 3)
		ring := netx.GroupHello{Topology: "ring", N: 3, Codecs: netx.AllCodecsMask()}
		if handDial(t, trs[0], m.Addr(), handshake(t, 1, 1, ring), inbound) {
			t.Error("a non-neighbour's session was admitted")
		}
		if !handDial(t, trs[0], m.Addr(), handshake(t, 2, 1, ring), inbound) {
			t.Error("the predecessor's new session was refused")
		}
	})
}

// TestMeshRecordsPeerCodecs forms replica 0 of a 2-replica full mesh
// against a hand-played replica 1 that advertises q16 only: the full
// mesh reads codec masks like every other topology.
func TestMeshRecordsPeerCodecs(t *testing.T) {
	trs, lns := netx.BindFabric(t, false, 2)
	defer lns[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// InProc queues both dials and their handshakes without waiting for
	// an accept, so replica 1 needs no goroutine.
	c, err := trs[1].Dial(ctx, lns[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(ctx, handshake(t, 1, 0, netx.GroupHello{Topology: "mesh", N: 2, Codecs: netx.CodecMask(netx.CodecQ16)})); err != nil {
		t.Fatal(err)
	}
	m, err := netx.FormTopologyOn(ctx, trs[0], lns[0], netx.FullMesh{}, 0, map[int]string{1: lns[1].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.SupportsCodec(netx.CodecQ8) {
		t.Error("SupportsCodec(q8) with a peer that advertises no q8")
	}
	if !m.SupportsCodec(netx.CodecQ16) || !m.SupportsCodec(netx.CodecNone) {
		t.Error("SupportsCodec refuses a codec every peer advertises")
	}
}
