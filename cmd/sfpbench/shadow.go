package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sfp/internal/core"
	"sfp/internal/lifecycle"
	"sfp/internal/model"
	"sfp/internal/pipeline"
	"sfp/internal/placement"
	"sfp/internal/vswitch"
	"sfp/internal/wal"
)

// layerSamples collects the traced run's per-layer observations: sample
// lists (reported as medians) and running sums (reported as totals or
// ratios). A nil *layerSamples — every untraced repetition — drops them.
type layerSamples struct {
	samples map[string][]float64
	sums    map[string]float64
}

func newLayerSamples() *layerSamples {
	return &layerSamples{samples: map[string][]float64{}, sums: map[string]float64{}}
}

func (ls *layerSamples) add(name string, v float64) {
	if ls != nil {
		ls.samples[name] = append(ls.samples[name], v)
	}
}

func (ls *layerSamples) count(name string, v float64) {
	if ls != nil {
		ls.sums[name] += v
	}
}

// replan books the real controller's report of its last pinned-IP replan.
func (ls *layerSamples) replan(st placement.ReplanStats) {
	if ls == nil {
		return
	}
	ls.add("placement.replan_ip_ms", ms(st.Elapsed))
	ls.add("placement.bb_nodes", float64(st.Nodes))
	ls.count("placement.replans", 1)
	if st.WarmStarted {
		ls.count("placement.replans_warm", 1)
	}
	if st.Rebuilt {
		ls.count("placement.replans_rebuilt", 1)
	}
}

// merge folds another repetition's observations in.
func (ls *layerSamples) merge(o *layerSamples) {
	if ls == nil || o == nil {
		return
	}
	for k, v := range o.samples {
		ls.samples[k] = append(ls.samples[k], v...)
	}
	for k, v := range o.sums {
		ls.sums[k] += v
	}
}

// shadows are the traced run's stand-ins for the layers below core. A core
// call cannot be opened up from outside, so right after each real call the
// harness feeds every shadow the identical inputs — the same chains to a
// shadow placement.Updater, the same record bytes and commit count to a
// shadow wal.Log, the same batch to a shadow vswitch — and times those.
// core's self time is the real call minus its shadows.
type shadows struct {
	upd   *placement.Updater
	build model.BuildOptions
	log   *wal.Log
	v     *vswitch.VSwitch
	// lastAlloc is the shadow switch's install time for the latest arrival
	// batch (the in-process cost p4rt.codec_net_ms subtracts).
	lastAlloc time.Duration
}

func newShadows(l *life) (*shadows, error) {
	s := &shadows{build: model.BuildOptions{Consolidate: l.opts.Consolidate}}
	if err := s.rebuildUpdater(l); err != nil {
		return nil, err
	}
	dir := filepath.Join(l.work, "shadow-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if s.log, _, err = wal.Open(dir); err != nil {
		return nil, err
	}
	return s, s.resyncSwitch(l)
}

// resyncSwitch rebuilds the shadow switch as a copy of the controller's.
func (s *shadows) resyncSwitch(l *life) error {
	sp := l.tr.start("vswitch.ExportState")
	st := l.ctrl.VSwitch().ExportState()
	l.res.layer.add("vswitch.export_ms", ms(sp.stop()))
	s.v = vswitch.New(pipeline.New(l.opts.Pipeline))
	sp = l.tr.start("vswitch.Restore")
	err := s.v.Restore(st)
	l.res.layer.add("vswitch.restore_ms", ms(sp.stop()))
	return err
}

func (s *shadows) close() {
	if s.log != nil {
		s.log.Close()
	}
}

// rebuildUpdater rebuilds the shadow planner from the controller's snapshot.
func (s *shadows) rebuildUpdater(l *life) error {
	in, a, _, err := l.ctrl.Snapshot()
	if err != nil {
		return err
	}
	sp := l.tr.start("placement.NewUpdater")
	s.upd, err = placement.NewUpdater(in, a, s.build)
	l.res.layer.add("placement.new_updater_ms", ms(sp.stop()))
	return err
}

// commit appends one record of n bytes to the shadow journal and commits it.
func (s *shadows) commit(l *life, of int, n int64) (time.Duration, error) {
	rec := make([]byte, max(n, 1))
	sp := l.tr.startShadow("wal.Log.Commit", of)
	err := s.log.Append(rec)
	if err == nil {
		err = s.log.Commit()
	}
	d := sp.stop()
	if err != nil {
		return d, fmt.Errorf("shadow journal: %w", err)
	}
	l.res.layer.add("wal.commit_us", us(d))
	return d, nil
}

// Every core transition journals a begin record (the payload) and a bare
// commit marker: one byte of body, eight of framing.
const commitMarkerBytes = 9

// beginBytes is the body size of the begin record of a transition that grew
// the journal from before to after. A snapshot rotation in between replaced
// the journal file, so the growth is unknown; the transition is then fed the
// running mean.
func (s *shadows) beginBytes(l *life, before, after journalStat) int64 {
	ls := l.res.layer
	delta := after.size - before.size
	if after.name != before.name || delta <= commitMarkerBytes {
		if n := ls.sums["core.journal_txns"]; n > 0 {
			delta = int64(ls.sums["core.journal_bytes"] / n)
		} else {
			delta = 64
		}
	} else {
		ls.count("core.journal_txns", 1)
		ls.count("core.journal_bytes", float64(delta))
	}
	return delta - commitMarkerBytes - 8
}

// arrive replays one ArriveMany on the shadows: register every chain, one
// replan, the begin commit, the batch install at the real placements, the
// commit marker.
func (s *shadows) arrive(l *life, of int, real time.Duration, admitted []*lifecycle.Tenant, placed []uint32, before, after journalStat) error {
	begin := s.beginBytes(l, before, after)
	var total time.Duration
	for _, t := range admitted {
		ch := chainOf(t.SFC)
		sp := l.tr.startShadow("placement.Updater.Arrive", of)
		err := s.upd.Arrive(ch)
		d := sp.stop()
		total += d
		l.res.layer.add("placement.arrive_us", us(d))
		if err != nil {
			s.upd = nil
			break
		}
	}
	if s.upd != nil {
		var err error
		if l.sp.algo == core.AlgoGreedy {
			sp := l.tr.startShadow("placement.Updater.ReplanGreedy", of)
			_, err = s.upd.ReplanGreedy()
			d := sp.stop()
			total += d
			l.res.layer.add("placement.replan_greedy_ms", ms(d))
		} else {
			sp := l.tr.startShadow("placement.Updater.Replan", of)
			_, err = s.upd.Replan(placement.ReplanOptions{TimeLimit: 10 * time.Second})
			total += sp.stop()
		}
		if err != nil {
			s.upd = nil
		}
	}
	d, err := s.commit(l, of, begin)
	if err != nil {
		return err
	}
	total += d

	if err := s.syncPhysical(l); err != nil {
		return err
	}
	items := make([]vswitch.BatchItem, 0, len(placed))
	for _, id := range placed {
		alloc := l.ctrl.VSwitch().Allocations(id)
		items = append(items, vswitch.BatchItem{SFC: alloc.Spec, Placements: alloc.Placements})
	}
	s.lastAlloc = 0
	if len(items) > 0 {
		sp := l.tr.startShadow("vswitch.AllocateBatch", of)
		_, err := s.v.AllocateBatch(items)
		s.lastAlloc = sp.stop()
		if err != nil {
			return fmt.Errorf("shadow switch refused the real batch: %w", err)
		}
		total += s.lastAlloc
		l.res.layer.add("vswitch.alloc_us_per_tenant", us(s.lastAlloc)/float64(len(items)))
	}
	if d, err = s.commit(l, of, 1); err != nil {
		return err
	}
	total += d
	l.res.layer.add("core.arrive_self_ms", ms(real-total))

	// Tenants the real replan refused are withdrawn by the harness next;
	// the shadow planner must agree on who is live, or it is rebuilt.
	return s.reconcile(l)
}

// depart replays one DepartMany: begin commit, batch deallocate of the placed
// tenants, one planner patch per tenant, commit marker. placed is the subset
// of tenants that held rules (nil when withdrawing refused arrivals).
func (s *shadows) depart(l *life, of int, real time.Duration, tenants, placed []uint32, before, after journalStat) error {
	total, err := s.commit(l, of, s.beginBytes(l, before, after))
	if err != nil {
		return err
	}
	if len(placed) > 0 {
		sp := l.tr.startShadow("vswitch.DeallocateBatch", of)
		err := s.v.DeallocateBatch(placed)
		d := sp.stop()
		if err != nil {
			return fmt.Errorf("shadow switch refused the real departures: %w", err)
		}
		total += d
		l.res.layer.add("vswitch.dealloc_us_per_tenant", us(d)/float64(len(placed)))
	}
	isPlaced := setOf(placed)
	for _, id := range tenants {
		if s.upd == nil {
			break
		}
		sp := l.tr.startShadow("placement.Updater.Depart", of)
		var err error
		if isPlaced[id] {
			err = s.upd.Depart(int(id))
		} else {
			s.upd.Withdraw(int(id))
		}
		d := sp.stop()
		total += d
		if isPlaced[id] {
			l.res.layer.add("placement.depart_us", us(d))
		}
		if err != nil {
			s.upd = nil
		}
	}
	d, err := s.commit(l, of, 1)
	if err != nil {
		return err
	}
	if len(placed) > 0 {
		l.res.layer.add("core.depart_self_ms", ms(real-total-d))
	}
	return s.reconcile(l)
}

// reconcile rebuilds the shadow planner when it stopped tracking the real
// one (an error, or — on pinned-IP replans — a different optimum that
// admitted a different set). The rebuild is outside every shadow span.
func (s *shadows) reconcile(l *life) error {
	if s.upd != nil && len(s.upd.Live()) == len(l.ctrl.PlacedTenants()) && s.upd.Waiting() == l.ctrl.WaitingCount() {
		return nil
	}
	return s.rebuildUpdater(l)
}

// syncPhysical installs or grows on the shadow switch the physical NFs the
// real replan added, as core's install pass does before the tenant batch.
func (s *shadows) syncPhysical(l *life) error {
	v := l.ctrl.VSwitch()
	for stage, types := range v.Layout() {
		for _, t := range types {
			real := v.FindPhysical(stage, t)
			mine := s.v.FindPhysical(stage, t)
			var err error
			switch {
			case mine == nil:
				_, err = s.v.InstallPhysicalNF(stage, t, real.Table.Capacity)
			case real.Table.Capacity > mine.Table.Capacity:
				err = s.v.Pipe.Stages[stage].GrowTable(mine.Table.Name, real.Table.Capacity)
			}
			if err != nil {
				return fmt.Errorf("shadow switch layout: %w", err)
			}
		}
	}
	return nil
}

// chainOf is the model chain core derives from an SFC.
func chainOf(s *vswitch.SFC) *model.Chain {
	ch := &model.Chain{ID: int(s.Tenant), BandwidthGbps: s.BandwidthGbps}
	for _, cfg := range s.NFs {
		ch.NFs = append(ch.NFs, model.ChainNF{Type: int(cfg.Type), Rules: max(len(cfg.Rules), 1)})
	}
	return ch
}
