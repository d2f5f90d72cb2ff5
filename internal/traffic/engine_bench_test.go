package traffic

import (
	"fmt"
	"testing"

	"sfp/internal/nf"
	"sfp/internal/pipeline"
	"sfp/internal/vswitch"
)

// BenchmarkProcessParallel replays a fixed pre-generated workload through
// the engine at increasing worker counts, each worker over its own switch
// clone. The chain is straight (no recirculation), so packet metadata is
// reset by the pipeline on every pass and Items are safely replayed across
// b.N iterations.
func BenchmarkProcessParallel(b *testing.B) {
	items := genWorkload(1, 4096)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := Engine{
				Workers: workers,
				New:     func(int) (Processor, error) { v, err := newEngineSwitch(); return v, err },
			}
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Replay(items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newReplaySwitch builds a firewall → traffic-classifier switch for the pps
// benchmark. Unlike newEngineSwitch's router (whose fwd action decrements
// TTL, mutating packets cumulatively across replays of the same workload),
// this chain is idempotent, so a pre-generated workload can be replayed any
// number of times with identical per-packet behavior.
func newReplaySwitch() (*vswitch.VSwitch, error) {
	v := vswitch.New(pipeline.New(pipeline.DefaultConfig()))
	if _, err := v.InstallPhysicalNF(0, nf.Firewall, 100); err != nil {
		return nil, err
	}
	if _, err := v.InstallPhysicalNF(1, nf.TrafficClassifier, 100); err != nil {
		return nil, err
	}
	sfc := &vswitch.SFC{
		Tenant:        7,
		BandwidthGbps: 10,
		NFs: []*nf.Config{
			{Type: nf.Firewall, Rules: []nf.ConfigRule{{
				Matches: []pipeline.Match{pipeline.Wildcard(), pipeline.Wildcard(), pipeline.Wildcard(), pipeline.Wildcard()},
				Action:  "permit",
			}}},
			{Type: nf.TrafficClassifier, Rules: []nf.ConfigRule{{
				Matches: []pipeline.Match{pipeline.Wildcard(), pipeline.Between(0, 65535)},
				Action:  "set_class", Params: []uint64{2},
			}}},
		},
	}
	if _, err := v.Allocate(sfc); err != nil {
		return nil, err
	}
	return v, nil
}

// BenchmarkReplayPPS is the replay throughput curve: replay a fixed
// workload at increasing worker counts through the batched compiled path
// and report packets per second. Scaling needs real cores.
func BenchmarkReplayPPS(b *testing.B) {
	items := genWorkload(2, 4096)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := Engine{
				Workers: workers,
				New:     func(int) (Processor, error) { v, err := newReplaySwitch(); return v, err },
			}
			defer eng.Close()
			// Warm the pool so processor construction stays off the clock.
			if _, err := eng.Replay(items); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Replay(items); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pkts := float64(b.N) * float64(len(items))
			b.ReportMetric(pkts/b.Elapsed().Seconds(), "pps")
		})
	}
}
