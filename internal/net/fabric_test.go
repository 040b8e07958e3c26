package net

import (
	"context"
	"fmt"
	"testing"
	"time"

	"avgpipe/internal/obs"
)

// BindFabric binds the n per-replica (transport, listener) pairs of a
// job formed inside one test process, ready for FormJob: one shared
// InProc transport, or over TCP one transport per replica on a
// kernel-chosen loopback port. It is exported only to this package's
// external tests.
func BindFabric(t testing.TB, tcp bool, n int) ([]Transport, []Listener) {
	t.Helper()
	inproc := NewInProc(0)
	trs := make([]Transport, n)
	lns := make([]Listener, n)
	for i := range lns {
		var tr Transport = inproc
		addr := fmt.Sprintf("replica-%d", i)
		if tcp {
			tr, addr = NewTCP(obs.NewRegistry()), "127.0.0.1:0"
		}
		ln, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		trs[i], lns[i] = tr, ln
	}
	return trs, lns
}

// FormTestJob binds (BindFabric) and forms (FormJob) an n-replica job
// inside one test process, closing every mesh when the test ends.
func FormTestJob(t testing.TB, tcp bool, topo Topology, n int) ([]Transport, []*Mesh) {
	t.Helper()
	trs, lns := BindFabric(t, tcp, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	meshes, err := FormJob(ctx, trs, lns, topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, m := range meshes {
			m.Close()
		}
	})
	return trs, meshes
}
