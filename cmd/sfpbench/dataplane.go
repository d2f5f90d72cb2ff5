package main

import (
	"encoding/json"
	"fmt"
	"time"

	"sfp/internal/nf"
	"sfp/internal/p4rt"
	"sfp/internal/packet"
	"sfp/internal/pipeline"
	"sfp/internal/traffic"
	"sfp/internal/vswitch"
)

// Probe packets start from addresses and ports outside everything
// nf.Synthesize draws (10.0.0.0/8, ports >= 1024), so they hit only the rule
// they are aimed at.
var (
	probeSrc = packet.IPv4Addr(172, 16, 0, 1)
	probeDst = packet.IPv4Addr(192, 168, 0, 1)
)

// craftPacket builds a 64-byte packet of the tenant that matches one of the
// tenant's own rules: the first rule with a forwarding action of the first
// NF whose key can be set from the wire. hits is false when the chain has no
// such rule (e.g. only rate limiters, which key on switch metadata); the
// packet then rides only the tenant's recirculation catch-alls. vlan tags the
// tenant in the 802.1Q header, the only tenant field that survives the wire.
func craftPacket(sfc *vswitch.SFC, vlan bool) (pkt packet.Packet, hits bool) {
	b := packet.NewBuilder().WithIPv4(probeSrc, probeDst).WithTCP(40000, 80)
	if vlan {
		b = b.WithVLAN(uint16(sfc.Tenant))
	} else {
		b = b.WithTenant(sfc.Tenant)
	}
	p := b.WithWireLen(64).Build()
	for _, cfg := range sfc.NFs {
		keys := nf.ForType(cfg.Type).Keys
		for _, r := range cfg.Rules {
			if r.Action == "deny" || !aim(p, keys, r.Matches) {
				continue
			}
			return *p, true
		}
	}
	return *p, false
}

// aim sets the packet's fields so that it satisfies every match of one rule;
// false when a key is not a wire field.
func aim(p *packet.Packet, keys []pipeline.Key, matches []pipeline.Match) bool {
	for _, k := range keys {
		switch k.Field {
		case pipeline.FieldIPv4Src, pipeline.FieldIPv4Dst, pipeline.FieldIPProto,
			pipeline.FieldSrcPort, pipeline.FieldDstPort, pipeline.FieldTCPFlags:
		default:
			return false
		}
	}
	for i, k := range keys {
		m := matches[i]
		cur := pipeline.Extract(p, k.Field)
		v := m.Value
		switch k.Kind {
		case pipeline.MatchTernary:
			v = cur&^m.Mask | m.Value&m.Mask
		case pipeline.MatchRange:
			v = m.Lo
		case pipeline.MatchLPM:
			if m.PrefixLen <= 0 {
				v = cur
			}
		}
		switch k.Field {
		case pipeline.FieldIPv4Src:
			p.IPv4.Src = uint32(v)
		case pipeline.FieldIPv4Dst:
			p.IPv4.Dst = uint32(v)
		case pipeline.FieldIPProto:
			if uint8(v) != packet.ProtoTCP {
				return false
			}
		case pipeline.FieldSrcPort:
			p.TCP.SrcPort = uint16(v)
		case pipeline.FieldDstPort:
			p.TCP.DstPort = uint16(v)
		case pipeline.FieldTCPFlags:
			p.TCP.Flags = uint8(v)
		}
	}
	return true
}

// dataplane is the harness's packet side: first packets of new tenants and
// the per-tick replay burst through traffic.Engine on the controller's
// switch. One goroutine drives it — the tables are unlocked by design, so
// reads never overlap the controller's writes.
type dataplane struct {
	eng      traffic.Engine
	compiled *pipeline.Compiled // the compiled pipeline eng was built on
	pkts     []packet.Packet
	items    []traffic.Item
	checked  bool
}

func newDataplane(l *life) *dataplane {
	d := &dataplane{
		pkts:  make([]packet.Packet, l.sp.replay),
		items: make([]traffic.Item, l.sp.replay),
	}
	d.eng = traffic.Engine{
		Workers: 1,
		New:     func(int) (traffic.Processor, error) { return l.ctrl.VSwitch(), nil },
	}
	return d
}

// rebind points the engine at the controller's current switch (a recovered
// controller has a new one).
func (d *dataplane) rebind() {
	d.eng.Close()
	d.compiled = nil
}

func (d *dataplane) close() { d.eng.Close() }

// firstPackets sends each newly placed tenant's probe packet through its
// chain — over loopback to the remote switch when the workload has one, into
// the controller's switch otherwise — and returns each tenant's
// time-to-first-packet: the admit transition plus the time until that
// tenant's packet came back. Every packet must traverse the allocation's
// passes, and apply at least one table when it was aimed at a rule.
func (d *dataplane) firstPackets(l *life, placed []uint32, admit time.Duration) ([]float64, error) {
	if len(placed) == 0 {
		return nil, nil
	}
	v := l.ctrl.VSwitch()
	results := make([]pipeline.Result, len(placed))
	ttfp := make([]float64, len(placed))
	nowNs := l.now * 1e9
	if l.rem != nil {
		if err := l.rem.inject(l, placed, nowNs, admit, results, ttfp); err != nil {
			return nil, err
		}
	} else {
		sp := l.tr.start("vswitch.Process")
		t0 := time.Now()
		for i, id := range placed {
			p := l.tenants[id].pkt
			results[i] = v.Process(&p, nowNs)
			ttfp[i] = ms(admit + time.Since(t0))
		}
		sp.stop()
		l.res.attempted += len(placed)
	}
	for i, id := range placed {
		alloc := v.Allocations(id)
		if alloc == nil {
			return nil, fmt.Errorf("tenant %d placed but has no allocation", id)
		}
		res := results[i]
		if !res.Dropped && res.Passes != alloc.Passes {
			return nil, fmt.Errorf("tenant %d first packet took %d passes, allocation has %d", id, res.Passes, alloc.Passes)
		}
		if l.tenants[id].hits && res.TablesApplied < 1 {
			return nil, fmt.Errorf("tenant %d first packet applied no table", id)
		}
	}
	return ttfp, nil
}

// fill aims the burst: one slot in twenty at a just-departed tenant (its
// rules are gone, so it must miss everything), one at a just-arrived one,
// the rest at random live tenants. Packets are fresh copies every tick —
// NFs rewrite headers and decrement TTLs.
func (d *dataplane) fill(l *life, arrived []uint32, gone []packet.Packet) (missers int) {
	for i := range d.pkts {
		switch {
		case i%20 == 0 && len(gone) > 0:
			d.pkts[i] = gone[l.rng.Intn(len(gone))]
			missers++
		case i%20 == 1 && len(arrived) > 0:
			d.pkts[i] = l.tenants[arrived[l.rng.Intn(len(arrived))]].pkt
		default:
			d.pkts[i] = l.tenants[l.liveIDs[l.rng.Intn(len(l.liveIDs))]].pkt
		}
		d.items[i] = traffic.Item{Pkt: &d.pkts[i], NowNs: l.now*1e9 + float64(i)*100}
	}
	return missers
}

// replayBurst replays the tick's burst and returns its rate in Mpkt/s.
func (d *dataplane) replayBurst(l *life, arrived []uint32, gone []packet.Packet, measured bool) (float64, error) {
	if len(l.liveIDs) == 0 {
		return 0, fmt.Errorf("no live tenant to aim traffic at")
	}
	sp := l.tr.start("traffic.gen")
	d.fill(l, arrived, gone)
	gen := sp.stop()
	l.res.layer.add("traffic.gen_ns_per_pkt", float64(gen.Nanoseconds())/float64(len(d.pkts)))
	// A physical-NF install replaces the switch's compiled pipeline; the
	// engine caches the one it was built on, so rebuild its pool then.
	if c := l.ctrl.VSwitch().Compiled(); c != d.compiled {
		d.eng.Close()
		d.compiled = c
	}
	if measured && !d.checked {
		d.checked = true
		if err := d.checkReplay(l); err != nil {
			return 0, err
		}
		d.fill(l, arrived, gone)
	}
	sp = l.tr.start("traffic.Engine.Replay")
	stats, err := d.eng.Replay(d.items)
	dur := sp.stop()
	if l.res.call(err) != nil {
		return 0, err
	}
	if stats.Packets != len(d.items) || stats.TablesApplied == 0 {
		return 0, fmt.Errorf("replay processed %d of %d packets, %d tables applied", stats.Packets, len(d.items), stats.TablesApplied)
	}
	return float64(stats.Packets) / dur.Seconds() / 1e6, nil
}

// checkReplay replays the current burst through a fresh engine and through a
// plain sequential Process loop, each on its own copy of the switch (NF
// registers make packet outcomes history-dependent, so both start from the
// same exported state), and requires identical aggregate outcomes.
func (d *dataplane) checkReplay(l *life) error {
	if len(d.items) == 0 || d.items[0].Pkt == nil {
		return nil
	}
	st := l.ctrl.VSwitch().ExportState()
	a, err := restoredCopy(l, st)
	if err != nil {
		return err
	}
	b, err := restoredCopy(l, st)
	if err != nil {
		return err
	}
	pristine := append([]packet.Packet(nil), d.pkts...)
	eng := traffic.Engine{Workers: 1, New: func(int) (traffic.Processor, error) { return a, nil }}
	defer eng.Close()
	got, err := eng.Replay(d.items)
	if err != nil {
		return err
	}
	copy(d.pkts, pristine)
	var want traffic.EngineStats
	for _, it := range d.items {
		res := b.Process(it.Pkt, it.NowNs)
		want.TablesApplied += res.TablesApplied
		if res.Dropped {
			want.Drops++
		}
	}
	copy(d.pkts, pristine)
	if got.Drops != want.Drops || got.TablesApplied != want.TablesApplied {
		return fmt.Errorf("engine replay (drops %d, tables %d) disagrees with sequential Process (drops %d, tables %d)",
			got.Drops, got.TablesApplied, want.Drops, want.TablesApplied)
	}
	return nil
}

// restoredCopy builds a fresh switch holding the exported state.
func restoredCopy(l *life, st *vswitch.State) (*vswitch.VSwitch, error) {
	v := vswitch.New(pipeline.New(l.opts.Pipeline))
	if err := v.Restore(st); err != nil {
		return nil, fmt.Errorf("restoring switch copy: %w", err)
	}
	return v, nil
}

// stateDigest renders a switch state in its canonical wire form with table
// capacities blanked: capacity only ever grows on a live switch, so a cold
// re-install (or a remote switch, which p4rt cannot grow) legitimately
// differs there and nowhere else.
func stateDigest(st *vswitch.State) string {
	dump := p4rt.FromState(st)
	return dumpDigest(dump)
}

func dumpDigest(dump *p4rt.StateDump) string {
	for i := range dump.Physical {
		dump.Physical[i].Capacity = 0
	}
	b, err := json.Marshal(dump)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(b)
}
