package main

// Adapter: calls into internal/serve and the snapshot frame it installs
// models from.

import (
	netx "avgpipe/internal/net"
)

// installModel hot-swaps m's weights into the server as round 1.
func installModel(s *server, m *sequential) error {
	ps := m.Params()
	f := &frame{Type: netx.FrameSnapshot, Round: 1, Meta: uint32(len(ps))}
	for _, p := range ps {
		f.Tensors = append(f.Tensors, p.W.Clone())
	}
	return s.InstallSnapshot(f)
}

// batchOccupancy reads how many dynamic batches the server executed and
// how many requests they carried.
func batchOccupancy(s *server) (batches, requests float64) {
	h := s.Registry().Histogram("avgpipe_serve_batch_occupancy", "", nil)
	return float64(h.Count()), h.Sum()
}
