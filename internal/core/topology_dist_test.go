package core

import (
	"testing"

	netx "avgpipe/internal/net"
)

// TestTopologyBitwiseDeterminism is the determinism gate for the
// averaging fabrics: the same seed trained single-process (the
// pre-topology seed path — no mesh at all) and as a 4-replica job over
// the explicit full mesh, the ring, and the hierarchical fabric must
// produce bit-identical per-round local losses. The overlays move the
// identical per-origin delta frames the mesh does — store-and-forward,
// never summed en route — so the deterministic pipeline-order reduction
// sees the same inputs everywhere.
func TestTopologyBitwiseDeterminism(t *testing.T) {
	const n, rounds, seed = 4, 6, 11
	want := singleProcessLosses(t, n, rounds, seed)
	for _, topo := range []netx.Topology{netx.FullMesh{}, netx.Ring{}, netx.Hierarchical{}} {
		t.Run(topo.Name(), func(t *testing.T) {
			requireDistMatches(t, formTestMeshes(t, false, topo, n), want, seed)
		})
	}
}
