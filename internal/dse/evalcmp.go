package dse

import (
	"context"
	"fmt"

	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/power"
	"heteronoc/internal/runcache"
	"heteronoc/internal/trace"
	"heteronoc/internal/warm"
)

// CMP-mode evaluation: score a placement by running a real workload on a
// full CMP (cores, caches, coherence) instead of a synthetic probe. This
// is where PR 5's layout-independent warmup sharing pays off at search
// scale: the warm state depends only on (bench, tiles, warmup budget,
// line size, prefetch), never on the placement under test, so the first
// candidate of a search warms one template system and every other
// candidate — across generations, resumes and concurrent searches —
// restores that checkpoint in O(1). A cold evaluation is one measured
// network simulation, not a warmup replay plus a simulation.

func evaluateCMPCached(ctx context.Context, cfg EvalConfig, bigSet []int) (Candidate, error) {
	key := fmt.Sprintf("dsecmp|%dx%d|big=%v|bl=%t|bench=%s|cyc=%d|warm=%d",
		cfg.W, cfg.H, bigSet, cfg.LinkRedist, cfg.Bench, cfg.CMPCycles, cfg.WarmupEntries)
	return runcache.ForCtx(ctx, key, func(ctx context.Context) (Candidate, error) {
		return evaluateCMP(ctx, cfg, bigSet)
	})
}

func evaluateCMP(ctx context.Context, cfg EvalConfig, bigSet []int) (Candidate, error) {
	layout := core.NewCustom(fmt.Sprintf("dse%v", bigSet), cfg.W, cfg.H, bigSet, cfg.LinkRedist)
	trs, err := trace.WorkloadTraces(cfg.Bench, layout.Mesh.NumTerminals(), 128)
	if err != nil {
		return Candidate{}, err
	}
	s, err := cmp.New(cmp.Config{Layout: layout, Traces: trs})
	if err != nil {
		return Candidate{}, err
	}
	if err := warm.System(ctx, s, layout, cfg.Bench, cfg.WarmupEntries); err != nil {
		return Candidate{}, err
	}
	if err := s.RunCtx(ctx, int64(cfg.CMPCycles)); err != nil {
		return Candidate{}, err
	}
	ns := s.NetStats()
	lat := ns.AvgLatency()
	return Candidate{
		Big:        bigSet,
		AvgLatency: lat,
		LatencyNS:  lat / layout.FreqGHz(),
		PowerW:     power.Network(power.NewModel(), layout, s.Net.Activity()).Total(),
		AreaMM2:    power.Area(layout),
		// Closed-loop CMP runs self-throttle rather than saturate; the
		// constraint machinery only sees synthetic-probe saturation.
		Saturated: false,
	}, nil
}
