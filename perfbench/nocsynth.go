package main

import (
	"fmt"
	"math/rand"
	"time"

	"heteronoc/internal/core"
	"heteronoc/internal/fault"
	"heteronoc/internal/noc"
	"heteronoc/internal/routing"
	"heteronoc/internal/runcache"
	"heteronoc/internal/traffic"
)

// nocSynth is the noc-synth workload: traffic.Run on networks the
// benchmark builds, with the run cache disabled, so host time is in the
// noc, routing and par layers and none is in cmp, trace, runcache or
// serve. Network construction is set-up; the runs are the timed phase.
type nocSynth struct {
	in nocSynthInputs
}

func newNocSynth(in nocSynthInputs) (bench, error) {
	runcache.SetEnabled(false)
	return &nocSynth{in: in}, nil
}

func (b *nocSynth) close() {}

func layoutByName(name string, size int) core.Layout {
	if name == "Baseline" {
		return core.NewBaseline(size, size)
	}
	return core.NewLayout(core.PlacementDiagonal, size, size, true)
}

func (b *nocSynth) pattern(r synthRun, l core.Layout) traffic.Pattern {
	n := l.Mesh.NumTerminals()
	switch r.Pattern {
	case "hotspot":
		return traffic.Hotspot{N: n, Hot: r.HotNode, Frac: 0.1}
	case "transpose":
		return traffic.Transpose{Grid: l.Mesh}
	}
	return traffic.UniformRandom{N: n}
}

// genTimer times the traffic generator's calls in traced rounds
// (traffic.gen_ms). Reading the clock around every call would double the
// cost of the injection loop, so it times the calls of one cycle in
// genSample and scales the sum up. traffic.Run falls back to 64 terminals
// for a pattern type it does not know, so it wraps only 8x8 runs.
type genTimer struct {
	acc    time.Duration
	sample bool
}

const genSample = 16

func (g *genTimer) total() time.Duration { return g.acc * genSample }

type timedPattern struct {
	traffic.Pattern
	g *genTimer
}

func (p timedPattern) Dst(src int, rng *rand.Rand) int {
	if !p.g.sample {
		return p.Pattern.Dst(src, rng)
	}
	t := time.Now()
	d := p.Pattern.Dst(src, rng)
	p.g.acc += time.Since(t)
	return d
}

type timedProcess struct {
	traffic.Process
	g *genTimer
}

func (p timedProcess) Fire(t int, cycle int64, rng *rand.Rand) bool {
	if p.g.sample = cycle%genSample == 0; !p.g.sample {
		return p.Process.Fire(t, cycle, rng)
	}
	t0 := time.Now()
	f := p.Process.Fire(t, cycle, rng)
	p.g.acc += time.Since(t0)
	return f
}

func (b *nocSynth) round(sc scope) (*roundResult, error) {
	rr := newRound()
	hits0, misses0 := runcache.Stats()
	execs0 := runcache.Execs()
	traced := sc.r != nil

	// Set-up: every network of the round, plus the reliable run's fault
	// table, plan and retransmission layer.
	t0 := time.Now()
	setup := sc.child("bench", "setup")
	var routeT, buildT time.Duration
	nets := make([]*noc.Network, len(b.in.Runs))
	for i, r := range b.in.Runs {
		l := layoutByName(r.Layout, r.Size)
		var alg routing.Algorithm
		routeT += setup.call("routing", "routing.NewXY", func() { alg = routing.NewXY(l.Mesh) })
		var err error
		buildT += setup.call("core", "core.Layout.NetworkWith", func() { nets[i], err = l.NetworkWith(alg) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		if r.Shards > 0 {
			setup.call("noc", "noc.Network.SetShardWorkers", func() { nets[i].SetShardWorkers(r.Shards) })
		}
		if r.Traced {
			setup.call("noc", "noc.NewNetworkFlitTracer", func() {
				nets[i].SetTracer(noc.NewNetworkFlitTracer(nets[i], noc.FlitTracerConfig{}))
			})
		}
	}
	rel := b.in.Reliable
	rl := layoutByName(rel.Layout, 8)
	var ft *routing.FaultTable
	routeT += setup.call("routing", "routing.NewFaultTable", func() {
		ft = routing.NewFaultTable(rl.Mesh, routing.FaultTableConfig{Big: rl.BigSet()})
	})
	var relNet *noc.Network
	var err error
	buildT += setup.call("core", "core.Layout.NetworkWith", func() { relNet, err = rl.NetworkWith(ft) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rel.Name, err)
	}
	plan := fault.Generate(rl.Mesh, rel.PlanSeed, fault.GenConfig{
		Links: rel.FailedLinks, Transients: rel.Transients, TransientLen: 64,
		MaxCycle: rel.InjectCycles / 2, KeepConnected: true,
	})
	var rnet *noc.Reliable
	setup.call("noc", "noc.NewReliable", func() {
		if err = relNet.SetFaultPlan(plan); err == nil {
			rnet = noc.NewReliable(relNet, noc.ReliableConfig{Timeout: 512, MaxRetries: 8})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rel.Name, err)
	}
	setup.end()
	rr.setup = time.Since(t0)
	rr.layer["routing.table_build_ms"] = millis(routeT)
	rr.layer["core.network_build_ms"] = millis(buildT)

	// Timed phase.
	t1 := time.Now()
	timed := sc.child("bench", "timed")
	var gen, run8 time.Duration
	var rc8 float64
	var twin [2]time.Duration
	var simCycles, delivered float64
	for i, r := range b.in.Runs {
		net := nets[i]
		l := layoutByName(r.Layout, r.Size)
		cfg := traffic.RunConfig{
			Pattern: b.pattern(r, l), Process: traffic.Bernoulli{P: r.Rate},
			DataFlits: l.DataPacketFlits(), WarmupPackets: r.Warmup, MeasurePackets: r.Measure,
			Seed: r.Seed,
		}
		var gt genTimer
		if traced && r.Size == 8 {
			cfg.Pattern = timedPattern{cfg.Pattern, &gt}
			cfg.Process = timedProcess{cfg.Process, &gt}
		}
		var res traffic.RunResult
		var err error
		d := timed.call("traffic", "traffic.Run "+r.Name, func() { res, err = traffic.Run(net, cfg) })
		st := net.Stats()
		rr.add(r.Name, d, fmt.Sprintf("%016x", st.Fingerprint()), err)
		routers := float64(r.Size * r.Size)
		rc := float64(net.Cycle()) * routers
		rr.routerCycles += rc
		simCycles += float64(net.Cycle())
		delivered += float64(st.PacketsReceived)
		if err == nil {
			if res.AttrResidual != 0 {
				rr.fail("%s: attribution residual %g, want 0", r.Name, res.AttrResidual)
			}
			if res.Saturated {
				rr.fail("%s: saturated at rate %g; the workload must stay below saturation", r.Name, r.Rate)
			}
		}
		switch {
		case r.Size != 8:
			rr.layer["noc.ns_per_router_cycle_32x32"] = ratio(float64(d.Nanoseconds()), rc)
			net.Close()
		case r.Traced:
			twin[1] = d
		default:
			if r.Name == "tracer-twin/untraced" {
				twin[0] = d
			}
			gen += gt.total()
			run8 += d - gt.total()
			rc8 += rc
		}
	}
	rr.layer["traffic.gen_ms"] = millis(gen)
	rr.layer["noc.ns_per_router_cycle"] = ratio(float64(run8.Nanoseconds()), rc8)
	rr.layer["noc.tracer_overhead_pct"] = 100 * ratio(float64(twin[1]-twin[0]), float64(twin[0]))

	d, rs, seen, fp, rerr := b.reliable(timed, rnet)
	rr.add(rel.Name, d, fp, rerr)
	if rerr == nil {
		b.checkReliable(rr, rnet, rs, seen)
	}
	rr.routerCycles += float64(relNet.Cycle()) * 64
	simCycles += float64(relNet.Cycle())
	delivered += float64(rs.Delivered)
	rr.layer["noc.reliable_ns_per_cycle"] = ratio(float64(d.Nanoseconds()), float64(relNet.Cycle()))
	rr.layer["noc.retransmit_ratio"] = ratio(float64(rs.Retransmissions), float64(rs.Sent))
	rr.layer["noc.sim_cycles"] = simCycles
	rr.layer["noc.packets_delivered"] = delivered
	timed.end()
	rr.wall = time.Since(t1)

	// Cache isolation: nothing timed here may be a cache answer.
	hits1, misses1 := runcache.Stats()
	if hits1 != hits0 || misses1 != misses0 || runcache.Execs() != execs0 || runcache.Dir() != "" {
		rr.fail("run cache moved (hits %d->%d, misses %d->%d, execs %d->%d, dir %q)",
			hits0, hits1, misses0, misses1, execs0, runcache.Execs(), runcache.Dir())
	}
	return rr, nil
}

// delivery identifies one reliable transfer.
type delivery struct {
	src, dst int
	seq      uint64
}

// reliable drives the fault-armed network through the retransmission
// layer: uniform traffic for InjectCycles, then a drain until every
// transfer is delivered or abandoned.
func (b *nocSynth) reliable(sc scope, rel *noc.Reliable) (time.Duration, noc.ReliableStats, map[delivery]int, string, error) {
	in := b.in.Reliable
	seen := map[delivery]int{}
	rel.SetOnDeliver(func(t *noc.Transfer, _ *noc.Packet) { seen[delivery{t.Src, t.Dst, t.Seq}]++ })
	rng := rand.New(rand.NewSource(in.TrafficSeed))
	pktRate := in.FlitRate / 6
	var err error
	d := sc.call("noc", "noc.Reliable "+in.Name, func() {
		for c := int64(0); c < in.InjectCycles && err == nil; c++ {
			for t := 0; t < 64; t++ {
				if rng.Float64() < pktRate {
					_, _ = rel.Send(t, rng.Intn(64), 6, 0, nil) // refusals are counted by the layer
				}
			}
			err = rel.Step()
		}
		for i := 0; err == nil && !rel.Quiesced() && i < 1<<20; i++ {
			err = rel.Step()
		}
	})
	rs := *rel.Stats()
	return d, rs, seen, fmt.Sprintf("%016x/%016x", rs.Fingerprint(), rel.Net().Fingerprint()), err
}

// checkReliable asserts exactly-once delivery: every accepted transfer was
// delivered, none was abandoned, and none reached the application twice.
func (b *nocSynth) checkReliable(rr *roundResult, rel *noc.Reliable, rs noc.ReliableStats, seen map[delivery]int) {
	name := b.in.Reliable.Name
	if !rel.Quiesced() {
		rr.fail("%s: did not drain (%d transfers pending)", name, rel.Pending())
	}
	if rs.Abandoned != 0 || rs.Unreachable != 0 || rs.Delivered != rs.Sent {
		rr.fail("%s: sent %d, delivered %d, abandoned %d, unreachable %d", name, rs.Sent, rs.Delivered, rs.Abandoned, rs.Unreachable)
	}
	if int64(len(seen)) != rs.Delivered {
		rr.fail("%s: %d distinct transfers reached the application, %d delivered", name, len(seen), rs.Delivered)
	}
	for k, n := range seen {
		if n != 1 {
			rr.fail("%s: transfer %v delivered %d times", name, k, n)
			break
		}
	}
}
