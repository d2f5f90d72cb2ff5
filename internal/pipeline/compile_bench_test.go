package pipeline

// Compiled-path micro-benchmarks, to compare against the interpreter
// (BenchmarkProcess / BenchmarkProcessCtx in fastpath_bench_test.go). The
// zero-allocation property is a test: TestCompiledProcessZeroAlloc.

import "testing"

// BenchmarkCompiledProcess is BenchmarkProcess on the compiled fast path:
// same 8-stage pipeline, same sharded 64-tenant table, pooled Context.
func BenchmarkCompiledProcess(b *testing.B) {
	pl, p := benchPipeline(b, 64)
	c := pl.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Meta.Pass = 0
		p.Meta.Recirculate = false
		c.Process(p, float64(i))
	}
}

// BenchmarkCompiledProcessCtx is the caller-owned-Context variant.
func BenchmarkCompiledProcessCtx(b *testing.B) {
	pl, p := benchPipeline(b, 64)
	c := pl.Compile()
	var ctx Context
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Meta.Pass = 0
		p.Meta.Recirculate = false
		c.ProcessCtx(p, float64(i), &ctx)
	}
}

// BenchmarkCompiledBatch measures the batched entry point: 64-packet chunks
// with one telemetry flush per chunk. ns/op is per batch; the per-packet
// cost is reported as ns/pkt.
func BenchmarkCompiledBatch(b *testing.B) {
	const batch = 64
	pl, proto := benchPipeline(b, 64)
	c := pl.Compile()
	items := make([]Item, batch)
	for i := range items {
		cp := *proto
		items[i] = Item{Pkt: &cp, NowNs: float64(i)}
	}
	out := make([]Result, 0, batch)
	s := c.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = c.ProcessBatch(items, out[:0], s)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
}
