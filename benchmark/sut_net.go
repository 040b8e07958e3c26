package main

// Adapter: calls into internal/net — mesh formation for the dist-mode
// workload, and the codec / compressor / connection probes.

import (
	"context"
	"fmt"
	"sync"

	netx "avgpipe/internal/net"
	"avgpipe/internal/tensor"
)

type (
	frame = netx.Frame
	conn  = netx.Conn
)

// formLoopbackMeshes joins n replicas of one process into a TCP full
// mesh over 127.0.0.1, exactly as n OS processes would: every replica
// has its own transport (recording into regs[i]), listener and mesh.
// Listeners bind first on kernel-chosen ports, so no port is guessed.
func formLoopbackMeshes(ctx context.Context, n int, regs []*registry) ([]*mesh, error) {
	trs := make([]*netx.TCP, n)
	lns := make([]netx.Listener, n)
	for i := range trs {
		trs[i] = netx.NewTCP(regs[i])
		ln, err := trs[i].Listen("127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen for replica %d: %w", i, err)
		}
		lns[i] = ln
	}
	meshes := make([]*mesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		peers := make(map[int]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = lns[j].Addr()
			}
		}
		wg.Add(1)
		go func(i int, peers map[int]string) {
			defer wg.Done()
			meshes[i], errs[i] = netx.FormTopologyOn(ctx, trs[i], lns[i], netx.FullMesh{}, i, peers)
		}(i, peers)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, m := range meshes {
				if m != nil {
					m.Close()
				}
			}
			return nil, fmt.Errorf("form mesh for replica %d: %w", i, err)
		}
	}
	return meshes, nil
}

// netSent reads a registry's TCP wire counters.
func netSent(reg *registry) (bytes, frames float64) {
	return reg.Counter("avgpipe_net_bytes_sent_total", "", "transport", "tcp").Value(),
		reg.Counter("avgpipe_net_frames_sent_total", "", "transport", "tcp").Value()
}

// updateFrame is an exact-codec update frame over the given tensors.
func updateFrame(deltas []*tensor.Tensor) *frame {
	return &frame{Type: netx.FrameUpdate, Replica: 0, Round: 1, Tensors: deltas}
}

func appendFrame(dst []byte, f *frame) ([]byte, error) { return netx.AppendFrame(dst, f) }
func decodeFrame(b []byte) (*frame, int, error)        { return netx.DecodeFrameBytes(b) }

// packer compresses deltas with error feedback under the named codec
// ("q8" or "topk") and wraps the blob in its update frame.
type packer struct {
	c     *netx.Compressor
	ftype netx.FrameType
}

func newPacker(codec string) (*packer, error) {
	c, err := netx.CodecByName(codec)
	if err != nil {
		return nil, err
	}
	comp, err := netx.NewCompressor(c, 0)
	if err != nil {
		return nil, err
	}
	return &packer{c: comp, ftype: c.UpdateFrameType()}, nil
}

func (p *packer) pack(deltas []*tensor.Tensor) (*frame, error) {
	blob, err := p.c.Pack(deltas)
	if err != nil {
		return nil, err
	}
	return &frame{Type: p.ftype, Round: 1, Blob: blob}, nil
}

func unpackFrame(f *frame) ([]*tensor.Tensor, error) { return netx.UnpackUpdateFrame(f) }

// echoPair dials one connection over the named transport ("inproc" or
// "tcp") and returns its two ends plus a closer.
func echoPair(ctx context.Context, transport string) (client, srv conn, closeAll func(), err error) {
	var tr netx.Transport
	addr := ""
	switch transport {
	case "inproc":
		tr = netx.NewInProc(0)
	case "tcp":
		tr, addr = netx.NewTCP(newRegistry()), "127.0.0.1:0"
	default:
		return nil, nil, nil, fmt.Errorf("unknown transport %q", transport)
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, nil, nil, err
	}
	type accepted struct {
		c   conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept(ctx)
		ch <- accepted{c, err}
	}()
	client, err = tr.Dial(ctx, ln.Addr())
	if err != nil {
		ln.Close()
		<-ch
		return nil, nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		ln.Close()
		return nil, nil, nil, a.err
	}
	return client, a.c, func() { client.Close(); a.c.Close(); ln.Close() }, nil
}
