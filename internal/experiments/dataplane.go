package experiments

import (
	"fmt"
	"math/rand"

	"sfp/internal/nf"
	"sfp/internal/packet"
	"sfp/internal/pipeline"
	"sfp/internal/softnf"
	"sfp/internal/traffic"
	"sfp/internal/vswitch"
)

// fig45VIP is the virtual service address the test tenant's traffic hits.
var fig45VIP = packet.IPv4Addr(20, 0, 0, 1)

// fig45Chain builds the §VI-B 4-NF tenant SFC: firewall, traffic
// classifier, load balancer, router — with rules that actually match the
// generated traffic so every packet exercises all four NFs.
func fig45Chain(tenant uint32) *vswitch.SFC {
	backend := packet.IPv4Addr(10, 8, 0, 1)
	return &vswitch.SFC{
		Tenant:        tenant,
		BandwidthGbps: 100,
		NFs: []*nf.Config{
			{Type: nf.Firewall, Rules: []nf.ConfigRule{{
				Matches: []pipeline.Match{pipeline.Wildcard(), pipeline.Wildcard(), pipeline.Wildcard(), pipeline.Wildcard()},
				Action:  "permit",
			}}},
			{Type: nf.TrafficClassifier, Rules: []nf.ConfigRule{{
				Matches: []pipeline.Match{pipeline.Wildcard(), pipeline.Between(0, 65535)},
				Action:  "set_class", Params: []uint64{2},
			}}},
			{Type: nf.LoadBalancer, Rules: []nf.ConfigRule{{
				Matches: []pipeline.Match{pipeline.Eq(uint64(fig45VIP)), pipeline.Eq(80)},
				Action:  "dnat", Params: []uint64{uint64(backend), 0},
			}}},
			{Type: nf.Router, Rules: []nf.ConfigRule{{
				Matches: []pipeline.Match{pipeline.Prefix(uint64(packet.IPv4Addr(10, 0, 0, 0)), 8)},
				Action:  "fwd", Params: []uint64{3},
			}}},
		},
	}
}

// fig45Switch builds a switch hosting the chain in physical order (one
// pass) or reverse order (forcing onePassPerNF recirculation, the paper's
// "SFP-Recir" configuration that applies one NF per pass).
func fig45Switch(reverse bool) (*vswitch.VSwitch, *vswitch.SFC, error) {
	cfg := pipeline.DefaultConfig()
	v := vswitch.New(pipeline.New(cfg))
	order := []nf.Type{nf.Firewall, nf.TrafficClassifier, nf.LoadBalancer, nf.Router}
	if reverse {
		order = []nf.Type{nf.Router, nf.LoadBalancer, nf.TrafficClassifier, nf.Firewall}
	}
	for stage, t := range order {
		if _, err := v.InstallPhysicalNF(stage, t, 1000); err != nil {
			return nil, nil, err
		}
	}
	sfc := fig45Chain(7)
	if _, err := v.Allocate(sfc); err != nil {
		return nil, nil, err
	}
	return v, sfc, nil
}

// runDataPlane pushes n packets of the given wire size through the switch
// and returns (mean latency ns, passes, drops). It is the sequential
// reference loop: the parallel engine path below must agree with it
// bit-for-bit at workers=1 (see TestFig45EngineMatchesSequential).
func runDataPlane(v *vswitch.VSwitch, tenant uint32, size, n int, rng *rand.Rand) (meanLat float64, passes int, drops int) {
	gen := traffic.NewFlowGen(rng, tenant, fig45VIP, 64)
	total := 0.0
	for i := 0; i < n; i++ {
		p := gen.Next(size)
		res := v.Process(p, float64(i)*1000)
		total += res.LatencyNs
		passes = res.Passes
		if res.Dropped {
			drops++
		}
	}
	return total / float64(n), passes, drops
}

// runDataPlaneParallel replays the same workload runDataPlane generates —
// same RNG draw order, same timestamps — through the parallel traffic
// engine, with one switch clone per worker built by newSwitch.
func runDataPlaneParallel(newSwitch func() (*vswitch.VSwitch, error), tenant uint32, size, n, workers int, rng *rand.Rand) (meanLat float64, passes, drops int, err error) {
	gen := traffic.NewFlowGen(rng, tenant, fig45VIP, 64)
	items := traffic.GenItems(gen, n, size, 1000)
	eng := traffic.Engine{
		Workers: workers,
		New:     func(int) (traffic.Processor, error) { return newSwitch() },
	}
	defer eng.Close()
	stats, err := eng.Replay(items)
	if err != nil {
		return 0, 0, 0, err
	}
	return stats.MeanLatencyNs(), stats.Passes, stats.Drops, nil
}

// Fig4 reproduces the throughput comparison at workers=1 (the sequential
// reference); Fig4Workers replays the packet workload across N engine
// workers.
func Fig4(packetsPerSize int) (*Table, error) { return Fig4Workers(packetsPerSize, 1) }

// Fig4Workers reproduces the throughput comparison: SFP saturates the
// 100 Gbps offered load at every packet size, while the DPDK chain is
// pps-bound and only saturates near MTU (§VI-B). workers selects the
// traffic engine's parallelism (<=0 = GOMAXPROCS); the aggregate metrics
// are independent of the worker count.
func Fig4Workers(packetsPerSize, workers int) (*Table, error) {
	if packetsPerSize <= 0 {
		packetsPerSize = 2000
	}
	newStraight := func() (*vswitch.VSwitch, error) {
		v, _, err := fig45Switch(false)
		return v, err
	}
	sfc := fig45Chain(7)
	dpdk, err := softnf.New(softnf.DefaultConfig(), len(sfc.NFs))
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig()
	const offered = 100.0
	t := &Table{
		Title:   "Fig. 4: SFC throughput, SFP vs DPDK (4-NF chain, 100 Gbps offered)",
		Columns: []string{"pkt_bytes", "sfp_gbps", "sfp_mpps", "dpdk_gbps", "dpdk_mpps"},
	}
	rng := rand.New(rand.NewSource(4))
	for _, size := range traffic.PacketSizes {
		// Exercise the real data plane to confirm lossless processing.
		_, passes, drops, err := runDataPlaneParallel(newStraight, sfc.Tenant, size, packetsPerSize, workers, rng)
		if err != nil {
			return nil, err
		}
		if drops > 0 {
			return nil, fmt.Errorf("experiments: fig4: %d unexpected drops at %dB", drops, size)
		}
		// SFP forwards at line rate divided by the pass count (one here).
		sfpGbps := offered / float64(passes)
		if lim := cfg.CapacityGbps / float64(passes); lim < sfpGbps {
			sfpGbps = lim
		}
		sfpMpps := pipeline.LineRatePPS(sfpGbps, size) / 1e6
		dpdkGbps := dpdk.ThroughputGbps(size, offered)
		dpdkMpps := pipeline.LineRatePPS(dpdkGbps, size) / 1e6
		t.Rows = append(t.Rows, []float64{float64(size), sfpGbps, sfpMpps, dpdkGbps, dpdkMpps})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d packets per size pushed through the pipeline simulator, zero drops", packetsPerSize),
		"paper shape: ≥10x pps gap at 64B; DPDK saturates 100Gbps only at 1500B")
	return t, nil
}

// Fig5 reproduces the latency comparison at workers=1 (the sequential
// reference); Fig5Workers replays the packet workload across N engine
// workers.
func Fig5(packetsPerSize int) (*Table, error) { return Fig5Workers(packetsPerSize, 1) }

// Fig5Workers reproduces the latency comparison: SFP ≈341 ns, SFP with
// three recirculations ≈+35 ns, DPDK ≈1151 ns.
func Fig5Workers(packetsPerSize, workers int) (*Table, error) {
	if packetsPerSize <= 0 {
		packetsPerSize = 1000
	}
	newStraight := func() (*vswitch.VSwitch, error) {
		v, _, err := fig45Switch(false)
		return v, err
	}
	newRecir := func() (*vswitch.VSwitch, error) {
		v, _, err := fig45Switch(true)
		return v, err
	}
	sfc := fig45Chain(7)
	dpdk, err := softnf.New(softnf.DefaultConfig(), len(sfc.NFs))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig. 5: SFC processing latency (ns), SFP vs SFP-Recir vs DPDK",
		Columns: []string{"pkt_bytes", "sfp_ns", "sfp_recir_ns", "dpdk_ns"},
	}
	rng := rand.New(rand.NewSource(5))
	var sfpSum, recirSum, dpdkSum float64
	for _, size := range traffic.PacketSizes {
		sfpLat, passes1, _, err := runDataPlaneParallel(newStraight, sfc.Tenant, size, packetsPerSize, workers, rng)
		if err != nil {
			return nil, err
		}
		recirLat, passes4, _, err := runDataPlaneParallel(newRecir, sfc.Tenant, size, packetsPerSize, workers, rng)
		if err != nil {
			return nil, err
		}
		if passes1 != 1 {
			return nil, fmt.Errorf("experiments: fig5: straight chain took %d passes", passes1)
		}
		if passes4 != 4 {
			return nil, fmt.Errorf("experiments: fig5: reverse chain took %d passes, want 4", passes4)
		}
		dpdkLat := dpdk.LatencyNs(size)
		t.Rows = append(t.Rows, []float64{float64(size), sfpLat, recirLat, dpdkLat})
		sfpSum += sfpLat
		recirSum += recirLat
		dpdkSum += dpdkLat
	}
	n := float64(len(traffic.PacketSizes))
	t.Notes = append(t.Notes,
		fmt.Sprintf("means: sfp=%.0fns sfp-recir=%.0fns dpdk=%.0fns (paper: 341 / ≈376 / 1151)",
			sfpSum/n, recirSum/n, dpdkSum/n),
		"recirculation adds ≈35ns for 3 extra passes; latency tracks applied NFs, not passes")
	return t, nil
}
