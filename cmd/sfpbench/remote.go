package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sfp/internal/nf"
	"sfp/internal/p4rt"
	"sfp/internal/packet"
	"sfp/internal/pipeline"
	"sfp/internal/vswitch"
)

// vidPool hands out tenant IDs that fit the 12-bit VLAN ID, oldest-freed
// first, so a departed tenant's ID stays unused for thousands of arrivals
// and its late packets are recognisably stale.
type vidPool struct{ free []uint32 }

func newVIDPool() *vidPool {
	p := &vidPool{free: make([]uint32, 0, 4095)}
	for id := uint32(1); id <= 4095; id++ {
		p.free = append(p.free, id)
	}
	return p
}

func (p *vidPool) take() uint32 {
	if len(p.free) == 0 {
		panic("sfpbench: VLAN ID pool exhausted: more than 4095 tenants in flight")
	}
	id := p.free[0]
	p.free = p.free[1:]
	return id
}

func (p *vidPool) give(id uint32) { p.free = append(p.free, id) }

// remote is the southbound half core does not have yet: a p4rt server on a
// second switch, reached over loopback TCP, that the harness keeps identical
// to the controller's in-process switch by mirroring every transition's
// delta as one Batch frame.
type remote struct {
	v        *vswitch.VSwitch
	srv      *p4rt.Server
	cli      *p4rt.Client
	wire     *countingListener
	dials    atomic.Int64
	physical map[[2]int]bool // (stage, type) cells installed remotely
	ping     time.Duration   // median Ping round trip, probed on traced runs
	frames   [][]byte        // scratch: wire frames of one tick's first packets
}

func startRemote(l *life) (*remote, error) {
	// The remote switch only has to accept what the controller decided, and
	// p4rt cannot grow a table after install, so its memory is generous and
	// every physical NF gets a stage's worth of entries up front.
	cfg := l.opts.Pipeline
	cfg.BlocksPerStage *= 4 * nf.TypeCount
	r := &remote{v: vswitch.New(pipeline.New(cfg)), physical: map[[2]int]bool{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.wire = &countingListener{Listener: ln}
	r.srv = p4rt.NewServer(&p4rt.VSwitchTarget{V: r.v})
	r.srv.Serve(r.wire)
	addr := ln.Addr().String()
	r.cli, err = p4rt.DialOptions(addr, p4rt.ClientOptions{
		Dialer: func(addr string) (net.Conn, error) {
			r.dials.Add(1)
			return net.DialTimeout("tcp", addr, 2*time.Second)
		},
	})
	if err != nil {
		r.srv.Close()
		return nil, err
	}
	if err := l.res.call(r.cli.Ping()); err != nil {
		r.close()
		return nil, err
	}
	if l.tr != nil {
		// The bare round trip p4rt.codec_net_ms subtracts from a batch.
		rtts := make([]float64, 16)
		for i := range rtts {
			t0 := time.Now()
			if err := l.res.call(r.cli.Ping()); err != nil {
				r.close()
				return nil, err
			}
			rtts[i] = float64(time.Since(t0))
		}
		r.ping = time.Duration(median(rtts))
	}
	return r, nil
}

func (r *remote) close() {
	r.cli.Close()
	r.srv.Shutdown(2 * time.Second)
}

// arrivalOps builds the Batch that brings the remote switch level with the
// controller's after an arrival transition: physical NFs the replan added,
// then every newly placed tenant at the controller's placements.
func (r *remote) arrivalOps(l *life, placed []uint32) ([]p4rt.BatchOp, error) {
	v := l.ctrl.VSwitch()
	var ops []p4rt.BatchOp
	capacity := l.opts.Pipeline.BlocksPerStage * l.opts.Pipeline.EntriesPerBlock
	for stage, types := range v.Layout() {
		for _, t := range types {
			cell := [2]int{stage, int(t)}
			if !r.physical[cell] {
				r.physical[cell] = true
				ops = append(ops, p4rt.OpInstallPhysical(stage, t, capacity))
			}
		}
	}
	for _, id := range placed {
		alloc := v.Allocations(id)
		if alloc == nil {
			return nil, fmt.Errorf("tenant %d placed but has no allocation", id)
		}
		ops = append(ops, p4rt.OpAllocateAt(alloc.Spec, alloc.Placements))
	}
	return ops, nil
}

// batch sends one mirrored delta and requires every sub-op to succeed. It
// returns the round trip and the bytes that crossed the wire for it.
func (r *remote) batch(l *life, ops []p4rt.BatchOp) (time.Duration, int64, error) {
	if len(ops) == 0 {
		return 0, 0, nil
	}
	before := r.wire.bytes.Load()
	sp := l.tr.start("p4rt.Client.Batch")
	results, err := r.cli.Batch(ops)
	d := sp.stop()
	if l.res.call(err) != nil {
		return d, 0, fmt.Errorf("mirroring to the remote switch: %w", err)
	}
	for i, res := range results {
		if !res.OK {
			return d, 0, fmt.Errorf("remote switch refused mirrored op %d: %s", i, res.Error)
		}
	}
	l.res.layer.add("p4rt.batch_rtt_ms", ms(d))
	return d, r.wire.bytes.Load() - before, nil
}

// mirrorArrivals mirrors one arrival transition (or, in set-up, the
// provisioned fleet) and returns the wall time it added to the transition.
func (r *remote) mirrorArrivals(l *life, placed []uint32) (time.Duration, error) {
	ops, err := r.arrivalOps(l, placed)
	if err != nil {
		return 0, err
	}
	d, wire, err := r.batch(l, ops)
	if err != nil || len(placed) == 0 {
		return d, err
	}
	l.res.layer.count("p4rt.wire_bytes", float64(wire))
	l.res.layer.count("p4rt.mirrored_tenants", float64(len(placed)))
	if l.sh != nil {
		// What the wire added on top of an in-process install of the same
		// tenants: encode, two loopback hops, decode, dispatch.
		l.res.layer.add("p4rt.codec_net_ms", ms(d-r.ping-l.sh.lastAlloc))
	}
	return d, nil
}

func (r *remote) mirrorDepartures(l *life, tenants []uint32) (time.Duration, error) {
	ops := make([]p4rt.BatchOp, len(tenants))
	for i, id := range tenants {
		ops[i] = p4rt.OpDeallocate(id)
	}
	d, _, err := r.batch(l, ops)
	return d, err
}

// inject pipelines one GoInject per newly placed tenant and fills results
// and ttfp (admit time plus the time until that tenant's reply arrived).
func (r *remote) inject(l *life, placed []uint32, nowNs float64, admit time.Duration, results []pipeline.Result, ttfp []float64) error {
	r.frames = r.frames[:0]
	for _, id := range placed {
		p := l.tenants[id].pkt
		r.frames = append(r.frames, packet.Deparse(&p))
	}
	var mu sync.Mutex
	var firstErr error
	sp := l.tr.start("p4rt.Client.GoInject")
	t0 := time.Now()
	for i := range placed {
		r.cli.GoInject(r.frames[i], nowNs, func(res p4rt.InjectResult, err error) {
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			ttfp[i] = ms(admit + time.Since(t0))
			results[i] = pipeline.Result{
				LatencyNs: res.LatencyNs, Passes: res.Passes, Dropped: res.Dropped,
				EgressPort: res.EgressPort, TablesApplied: res.TablesApplied,
			}
		})
	}
	err := r.cli.Flush()
	sp.stop()
	if err == nil {
		err = firstErr
	}
	l.res.attempted += len(placed)
	if err != nil {
		l.res.failed++
		return fmt.Errorf("injecting first packets: %w", err)
	}
	return nil
}

// checkState requires the remote switch to hold exactly what the
// controller's switch holds, and departed tenants' packets to apply no table
// there.
func (r *remote) checkState(l *life) error {
	sp := l.tr.start("p4rt.Client.DumpState")
	dump, err := r.cli.DumpState()
	l.res.layer.add("p4rt.dump_state_ms", ms(sp.stop()))
	if l.res.call(err) != nil {
		return err
	}
	if dumpDigest(dump) != stateDigest(l.ctrl.VSwitch().ExportState()) {
		return fmt.Errorf("remote switch state differs from the controller's switch")
	}
	// The most recently freed VLAN IDs belong to tenants that just left (or
	// never got in).
	for _, id := range l.vids.free[len(l.vids.free)-min(16, len(l.vids.free)):] {
		p := packet.NewBuilder().WithIPv4(probeSrc, probeDst).WithTCP(40000, 80).WithVLAN(uint16(id)).WithWireLen(64).Build()
		res, err := r.cli.Inject(packet.Deparse(p), 0)
		if l.res.call(err) != nil {
			return err
		}
		if res.TablesApplied != 0 {
			return fmt.Errorf("departed tenant %d still applies %d tables on the remote switch", id, res.TablesApplied)
		}
	}
	return nil
}

// countingListener counts every byte that crosses the server's accepted
// connections, both directions.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
