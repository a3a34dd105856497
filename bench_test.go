// Package heteronoc's root benchmark harness: one benchmark per paper
// table/figure (regenerating the artifact at a reduced scale per
// iteration) plus microbenchmarks of the simulator core. Run the full
// regeneration with cmd/experiments -scale full; these benches exist to
// exercise every experiment path under `go test -bench` and to track
// simulator performance.
package heteronoc

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/dse"
	"heteronoc/internal/experiments"
	"heteronoc/internal/fault"
	"heteronoc/internal/noc"
	"heteronoc/internal/obs"
	"heteronoc/internal/routing"
	"heteronoc/internal/runcache"
	"heteronoc/internal/topology"
	"heteronoc/internal/trace"
	"heteronoc/internal/traffic"
)

// newBenchRng returns the deterministic source used by the benchmarks.
func newBenchRng() *rand.Rand { return rand.New(rand.NewSource(1)) }

// benchScale keeps per-iteration work bounded.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Name:             "bench",
		WarmupPackets:    100,
		MeasurePackets:   1500,
		SweepPoints:      3,
		CMPWarmupEntries: 8000,
		CMPCycles:        2000,
		DSEPackets:       200,
		DSECandidates:    4,
	}
}

func runExp(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A process-unique Scale.Name per iteration defeats the runcache
		// memoization (including across -count repetitions, which share
		// the process), so every iteration measures a real regeneration,
		// never a cache lookup.
		sc.Name = fmt.Sprintf("bench-%s-%d", id, benchRunSeq.Add(1))
		if _, err := r.Run(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRunSeq makes every runExp iteration's Scale.Name unique for the
// lifetime of the test process.
var benchRunSeq atomic.Int64

func BenchmarkFig1MeshUtilization(b *testing.B) { runExp(b, "fig1") }
func BenchmarkFig2OtherTopologies(b *testing.B) { runExp(b, "fig2") }
func BenchmarkTable1RouterModel(b *testing.B)   { runExp(b, "table1") }
func BenchmarkFig7URSweep(b *testing.B)         { runExp(b, "fig7") }
func BenchmarkFig8Breakdowns(b *testing.B)      { runExp(b, "fig8") }
func BenchmarkFig9NNSweep(b *testing.B)         { runExp(b, "fig9") }
func BenchmarkFig10Torus(b *testing.B)          { runExp(b, "fig10") }
func BenchmarkFig11Apps(b *testing.B)           { runExp(b, "fig11") }
func BenchmarkFig12IPC(b *testing.B)            { runExp(b, "fig12") }
func BenchmarkFig13MemCtrl(b *testing.B)        { runExp(b, "fig13") }
func BenchmarkFig14AsymCMP(b *testing.B)        { runExp(b, "fig14") }
func BenchmarkDSE4x4(b *testing.B)              { runExp(b, "dse") }

// BenchmarkNetworkCycle measures raw simulator speed: cycles/sec of the
// baseline 8x8 mesh under moderate uniform-random load.
func BenchmarkNetworkCycle(b *testing.B) {
	l := core.NewBaseline(8, 8)
	net, err := l.Network()
	if err != nil {
		b.Fatal(err)
	}
	gen := traffic.UniformRandom{N: 64}
	proc := traffic.Bernoulli{P: 0.03}
	rng := newBenchRng()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 64; t++ {
			if proc.Fire(t, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: t, Dst: gen.Dst(t, rng), NumFlits: 6})
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkCycleNoAttr is BenchmarkNetworkCycle with the always-on
// attribution counter path disabled. The delta against BenchmarkNetworkCycle
// is the cost of causal latency attribution; scripts/bench.sh records it as
// attribution_overhead_pct with a ≤5% budget.
func BenchmarkNetworkCycleNoAttr(b *testing.B) {
	l := core.NewBaseline(8, 8)
	net, err := l.Network()
	if err != nil {
		b.Fatal(err)
	}
	net.SetAttribution(false)
	gen := traffic.UniformRandom{N: 64}
	proc := traffic.Bernoulli{P: 0.03}
	rng := newBenchRng()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 64; t++ {
			if proc.Fire(t, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: t, Dst: gen.Dst(t, rng), NumFlits: 6})
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeteroNetworkCycle is the same for Diagonal+BL (wide links,
// split-datapath allocator).
func BenchmarkHeteroNetworkCycle(b *testing.B) {
	l := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	net, err := l.Network()
	if err != nil {
		b.Fatal(err)
	}
	gen := traffic.UniformRandom{N: 64}
	proc := traffic.Bernoulli{P: 0.03}
	rng := newBenchRng()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 64; t++ {
			if proc.Fire(t, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: t, Dst: gen.Dst(t, rng), NumFlits: 6})
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNetworkCycleScaled is BenchmarkNetworkCycle generalized to a w-wide
// square mesh. The injection rate is bisection-scaled (0.03 at 8x8, then
// x8/w) so every size runs at a comparable fraction of its own saturation
// load instead of drowning the big meshes. It reports ns/router alongside
// ns/op so the per-router cycle cost — the number that should stay flat if
// the engine scales linearly — is visible directly in the bench output.
func benchNetworkCycleScaled(b *testing.B, w int) {
	l := core.NewBaseline(w, w)
	net, err := l.Network()
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	n := w * w
	gen := traffic.UniformRandom{N: n}
	proc := traffic.Bernoulli{P: 0.03 * 8 / float64(w)}
	rng := newBenchRng()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < n; t++ {
			if proc.Fire(t, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: t, Dst: gen.Dst(t, rng), NumFlits: 6})
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/router")
}

// BenchmarkNetworkCycle16x16 and -32x32 track the cycle cost at 256 and
// 1024 routers; scripts/bench.sh surfaces the 32x32 per-router cost as
// cycle_ns_per_router_32x32.
func BenchmarkNetworkCycle16x16(b *testing.B) { benchNetworkCycleScaled(b, 16) }
func BenchmarkNetworkCycle32x32(b *testing.B) { benchNetworkCycleScaled(b, 32) }

// BenchmarkNetworkCycleTraced is BenchmarkNetworkCycle with a full-detail
// flit tracer installed (macro + VC/SA/credit events into per-router
// rings). The delta against BenchmarkNetworkCycle is the cost of tracing a
// run; scripts/bench.sh records it as tracer_overhead_pct.
func BenchmarkNetworkCycleTraced(b *testing.B) {
	l := core.NewBaseline(8, 8)
	net, err := l.Network()
	if err != nil {
		b.Fatal(err)
	}
	net.SetTracer(noc.NewNetworkFlitTracer(net, noc.FlitTracerConfig{}))
	gen := traffic.UniformRandom{N: 64}
	proc := traffic.Bernoulli{P: 0.03}
	rng := newBenchRng()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 64; t++ {
			if proc.Fire(t, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: t, Dst: gen.Dst(t, rng), NumFlits: 6})
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkCycleSampled is BenchmarkNetworkCycle with the metrics
// registry populated and a per-router time-series sampler attached at the
// default stride — the steady-state cost of leaving observability on
// (pull-based metrics cost nothing between scrapes; the sampler adds one
// per-cycle hook plus a sample every 1000 cycles). scripts/bench.sh
// records the delta as metrics_overhead_pct.
func BenchmarkNetworkCycleSampled(b *testing.B) {
	l := core.NewBaseline(8, 8)
	net, err := l.Network()
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	net.RegisterMetrics(reg)
	noc.NewSampler(net, 0).Attach()
	gen := traffic.UniformRandom{N: 64}
	proc := traffic.Bernoulli{P: 0.03}
	rng := newBenchRng()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 64; t++ {
			if proc.Fire(t, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: t, Dst: gen.Dst(t, rng), NumFlits: 6})
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, err := obs.ValidatePrometheusText(string(reg.Exposition())); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCMPCycle measures full-system (64 cores + coherence + NoC +
// DRAM) cycles/sec.
func BenchmarkCMPCycle(b *testing.B) {
	p, err := trace.ProfileByName("SPECjbb")
	if err != nil {
		b.Fatal(err)
	}
	trs := make([]trace.Reader, 64)
	for i := range trs {
		trs[i] = trace.NewGenerator(p, i, 128)
	}
	s, err := cmp.New(cmp.Config{Layout: core.NewBaseline(8, 8), Traces: trs})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Warmup(context.Background(), 8000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableRouteBuild measures zig-zag table construction: one
// fault-free 8x8 FaultTable, 64 BFS passes with big-router tie-breaks.
func BenchmarkTableRouteBuild(b *testing.B) {
	m := topology.NewMesh(8, 8)
	l := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	big := l.BigSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.NewTableXY(m, routing.TableXYConfig{Flagged: []int{0, 7, 56, 63}, Big: big})
	}
}

// BenchmarkFaultTableRebuild measures one Rebuild of all routes over a
// faulted 8x8 mesh — the latency each permanent-fault batch charges the
// simulation. Every Rebuild recomputes every destination from the link
// state alone; alternating two fault sets only keeps the input changing.
func BenchmarkFaultTableRebuild(b *testing.B) {
	m := topology.NewMesh(8, 8)
	l := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	ft := routing.NewFaultTable(m, routing.FaultTableConfig{Big: l.BigSet()})
	lsA := topology.NewLinkState(m)
	lsA.FailLink(m.RouterAt(3, 3), topology.PortEast)
	lsA.FailLink(m.RouterAt(4, 4), topology.PortNorth)
	lsA.FailRouter(m.RouterAt(1, 6))
	lsB := topology.NewLinkState(m)
	lsB.FailLink(m.RouterAt(5, 2), topology.PortSouth)
	lsB.FailLink(m.RouterAt(2, 5), topology.PortWest)
	lsB.FailRouter(m.RouterAt(6, 1))
	states := [2]*topology.LinkState{lsA, lsB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Rebuild(states[i&1])
	}
}

// BenchmarkTableBuild1024 measures building a FaultTable for a 32x32 mesh
// (1024 routers, 1024 destinations): one BFS pass per destination, so the
// cost grows with routers times destinations. No experiment builds a table
// this large (the scale experiments route with X-Y); it bounds the set-up
// cost of table routing at 1024 routers.
func BenchmarkTableBuild1024(b *testing.B) {
	m := topology.NewMesh(32, 32)
	l := core.NewLayout(core.PlacementDiagonal, 32, 32, true)
	big := l.BigSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.NewFaultTable(m, routing.FaultTableConfig{Big: big})
	}
}

// BenchmarkFaultSweep regenerates the graceful-degradation experiment
// (0..8 failed links, baseline vs Diagonal+BL, reliability layer +
// saturation probes) at the reduced bench scale; scripts/bench.sh records
// its runtime so fault-stack performance regressions show up in
// BENCH_noc.json like kernel regressions do.
func BenchmarkFaultSweep(b *testing.B) { runExp(b, "degradation") }

// BenchmarkReliableCycle measures the per-cycle overhead of the NI
// retransmission layer on a fault-armed network under moderate load.
func BenchmarkReliableCycle(b *testing.B) {
	m := topology.NewMesh(8, 8)
	net, err := core.NewBaseline(8, 8).NetworkWith(
		routing.NewFaultTable(m, routing.FaultTableConfig{}))
	if err != nil {
		b.Fatal(err)
	}
	if err := net.SetFaultPlan(&fault.Plan{}); err != nil {
		b.Fatal(err)
	}
	rel := noc.NewReliable(net, noc.ReliableConfig{})
	gen := traffic.UniformRandom{N: 64}
	proc := traffic.Bernoulli{P: 0.03}
	rng := newBenchRng()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 64; t++ {
			if proc.Fire(t, net.Cycle(), rng) {
				if _, err := rel.Send(t, gen.Dst(t, rng), 6, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := rel.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore measures restoring a mid-run 8x8 network
// checkpoint into a fresh simulator, acceptance check included — the
// fixed cost `noxsim -ckptcheck` pays to verify its checkpoint. Each fresh network is built with the timer
// stopped, so ns/op is the restore alone. scripts/bench.sh records it as
// "ckpt_restore_ns_per_op" in BENCH_noc.json.
func BenchmarkCheckpointRestore(b *testing.B) {
	l := core.NewBaseline(8, 8)
	net, err := l.Network()
	if err != nil {
		b.Fatal(err)
	}
	gen := traffic.UniformRandom{N: 64}
	proc := traffic.Bernoulli{P: 0.03}
	rng := newBenchRng()
	for c := 0; c < 2000; c++ {
		for t := 0; t < 64; t++ {
			if proc.Fire(t, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: t, Dst: gen.Dst(t, rng), NumFlits: 6})
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := net.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := l.Network()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := fresh.RestoreSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmRestore measures restoring a shared CMP warm checkpoint
// versus the warmup replay it replaces (BenchmarkCMPWarmup below); the
// ratio is the per-run saving the warmup-sharing path buys each figure.
func BenchmarkWarmRestore(b *testing.B) {
	p, err := trace.ProfileByName("SPECjbb")
	if err != nil {
		b.Fatal(err)
	}
	mkTraces := func() []trace.Reader {
		trs := make([]trace.Reader, 64)
		for i := range trs {
			trs[i] = trace.NewGenerator(p, i, 128)
		}
		return trs
	}
	warm, err := cmp.New(cmp.Config{Layout: core.NewBaseline(8, 8), Traces: mkTraces()})
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.Warmup(context.Background(), 8000); err != nil {
		b.Fatal(err)
	}
	snap, err := warm.WarmSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cmp.New(cmp.Config{Layout: core.NewBaseline(8, 8), Traces: mkTraces()})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RestoreWarmSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// traceDecodeEntries is the trace length decoded per iteration by
// BenchmarkTraceDecode; scripts/bench.sh divides it by ns/op to surface
// the decode throughput as trace_decode_entries_per_sec.
const traceDecodeEntries = 1 << 16

// BenchmarkTraceDecode measures chunked HNTR2 trace replay through Next,
// with and without the background chunk prefetcher.
func BenchmarkTraceDecode(b *testing.B) {
	p, err := trace.ProfileByName("SPECjbb")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.RecordChunked(&buf, trace.NewGenerator(p, 0, 128), traceDecodeEntries, 0); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	replay := func(b *testing.B, prefetch bool) {
		r, err := trace.NewChunkReader(bytes.NewReader(data), int64(len(data)), prefetch)
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.SeekTo(0); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < traceDecodeEntries; j++ {
				r.Next()
			}
		}
	}
	b.Run("next", func(b *testing.B) { replay(b, false) })
	b.Run("next-prefetch", func(b *testing.B) { replay(b, true) })
}

// BenchmarkWarmRestoreSeek is BenchmarkWarmRestore on file-backed chunked
// traces: restore repositions every reader with one SeekTo instead of the
// O(warmup) Next() replay, so this number stays flat as warmup depth
// grows. Surfaced by scripts/bench.sh as warm_restore_seek_ns_per_op.
func BenchmarkWarmRestoreSeek(b *testing.B) {
	p, err := trace.ProfileByName("SPECjbb")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	readers := make([]trace.Reader, 64)
	for i := range readers {
		path := filepath.Join(dir, fmt.Sprintf("core%d.trc2", i))
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := trace.RecordChunked(f, trace.NewGenerator(p, i, 128), 10000, 0); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		cf, err := trace.OpenChunked(path, false)
		if err != nil {
			b.Fatal(err)
		}
		defer cf.Close()
		readers[i] = cf
	}
	warm, err := cmp.New(cmp.Config{Layout: core.NewBaseline(8, 8), Traces: readers})
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.Warmup(context.Background(), 8000); err != nil {
		b.Fatal(err)
	}
	snap, err := warm.WarmSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The chunked readers are position-addressable, so reusing them is
		// sound: restore lands each one at the warmup boundary by seek, no
		// matter where the previous iteration left it.
		s, err := cmp.New(cmp.Config{Layout: core.NewBaseline(8, 8), Traces: readers})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RestoreWarmSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCMPWarmup is the direct-warmup baseline for BenchmarkWarmRestore.
func BenchmarkCMPWarmup(b *testing.B) {
	p, err := trace.ProfileByName("SPECjbb")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := warmFresh(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCMPWarmupBusy runs the same warmups on every P at once, so
// the warmup's reader goroutine finds no idle core: the case of a
// figure's par fan-out or a fully busy server.
func BenchmarkCMPWarmupBusy(b *testing.B) {
	p, err := trace.ProfileByName("SPECjbb")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := warmFresh(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// warmFresh builds an 8x8 system on fresh generators of profile p and
// warms it for 8,000 entries per core.
func warmFresh(p trace.Profile) error {
	trs := make([]trace.Reader, 64)
	for t := range trs {
		trs[t] = trace.NewGenerator(p, t, 128)
	}
	s, err := cmp.New(cmp.Config{Layout: core.NewBaseline(8, 8), Traces: trs})
	if err != nil {
		return err
	}
	return s.Warmup(context.Background(), 8000)
}

// BenchmarkDSEGeneration measures the multi-objective search at its unit
// of work: one small 4x4 search (initial population plus one bred
// generation) per iteration. The seed is fixed, so the first iteration
// pays for real probes and every later one is answered by runcache — the
// reported cache_hit_ratio is the cross-run dedup rate the search design
// banks on, and evals/s is the effective evaluation throughput including
// those cache answers.
func BenchmarkDSEGeneration(b *testing.B) {
	runcache.Reset()
	cfg := dse.SearchConfig{
		Eval: dse.EvalConfig{
			W: 4, H: 4, LinkRedist: true,
			InjectionRate: 0.05, Packets: 300, Seed: 3,
		},
		MinBig: 4, MaxBig: 4,
		PopSize: 8, Generations: 1,
		Seed: 17,
	}
	execs0 := runcache.Execs()
	totalEvals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dse.Search(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front) == 0 {
			b.Fatal("empty front")
		}
		totalEvals += res.Evals
	}
	b.StopTimer()
	execs := runcache.Execs() - execs0
	if totalEvals > 0 {
		b.ReportMetric(float64(totalEvals)/b.Elapsed().Seconds(), "evals/s")
		b.ReportMetric(float64(totalEvals-int(execs))/float64(totalEvals), "cache_hit_ratio")
	}
}
