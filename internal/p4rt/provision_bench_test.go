package p4rt

// Provisioning fast-path benchmark: arrivals/sec through the southbound
// API over real loopback TCP, per-op serial vs batched + pipelined.

import (
	"testing"
	"time"

	"sfp/internal/nf"
	"sfp/internal/pipeline"
	"sfp/internal/vswitch"
)

const (
	benchTenants   = 32 // arrivals per iteration
	benchBatchSize = 16 // sub-ops per MsgBatch frame on the batched path
)

// benchSwitch serves a fresh 3-stage switch with pre-installed physical
// NFs over loopback TCP and returns a connected client.
func benchSwitch(b *testing.B) (*Client, func()) {
	b.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Stages = 3
	cfg.CapacityGbps = 1e9 // admission never the bottleneck here
	v := vswitch.New(pipeline.New(cfg))
	if _, err := v.InstallPhysicalNF(0, nf.Firewall, benchTenants*4); err != nil {
		b.Fatal(err)
	}
	if _, err := v.InstallPhysicalNF(1, nf.Router, benchTenants*4); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(&VSwitchTarget{V: v})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	c, err := DialOptions(addr, ClientOptions{DialTimeout: 2 * time.Second})
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	return c, func() {
		c.Close()
		srv.Close()
	}
}

// BenchmarkProvisionSerial is the baseline: one synchronous round trip
// per southbound op (the pre-batching client behavior).
func BenchmarkProvisionSerial(b *testing.B) {
	c, cleanup := benchSwitch(b)
	defer cleanup()
	pls := batchPlacements()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tenant := uint32(1); tenant <= benchTenants; tenant++ {
			if _, err := c.AllocateAt(wireSFC(tenant), pls); err != nil {
				b.Fatal(err)
			}
		}
		for tenant := uint32(1); tenant <= benchTenants; tenant++ {
			if err := c.Deallocate(tenant); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	reportProvisionMetrics(b)
}

// BenchmarkProvisionBatched is the fast path: sub-ops coalesced into
// MsgBatch frames, frames pipelined on one connection via GoBatch/Flush.
func BenchmarkProvisionBatched(b *testing.B) {
	c, cleanup := benchSwitch(b)
	defer cleanup()
	pls := batchPlacements()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for start := uint32(1); start <= benchTenants; start += benchBatchSize {
			ops := make([]BatchOp, 0, benchBatchSize)
			for tenant := start; tenant < start+benchBatchSize; tenant++ {
				ops = append(ops, OpAllocateAt(wireSFC(tenant), pls))
			}
			c.GoBatch(ops, nil)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for start := uint32(1); start <= benchTenants; start += benchBatchSize {
			ops := make([]BatchOp, 0, benchBatchSize)
			for tenant := start; tenant < start+benchBatchSize; tenant++ {
				ops = append(ops, OpDeallocate(tenant))
			}
			c.GoBatch(ops, nil)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportProvisionMetrics(b)
}

// reportProvisionMetrics derives arrivals/sec and southbound ops/sec
// (allocate + deallocate both cross the wire) from the timed section.
func reportProvisionMetrics(b *testing.B) {
	elapsed := b.Elapsed().Seconds()
	if elapsed <= 0 {
		return
	}
	arrivals := float64(b.N) * benchTenants
	b.ReportMetric(arrivals/elapsed, "arrivals/s")
	b.ReportMetric(2*arrivals/elapsed, "sbops/s")
}
