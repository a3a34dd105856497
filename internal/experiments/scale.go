package experiments

// The scale experiment takes the paper's Fig 7 methodology to CMP sizes the
// original evaluation never reaches: 16x16 (256 routers) and 32x32 (1024
// routers). Two questions drive it. Does the heterogeneous diagonal
// placement keep its latency advantage as the mesh grows (the center
// hot-spot it exploits only sharpens with scale)? And does the simulator
// itself hold up — is the sharded tick still bit-deterministic at 1024
// routers, and how much wall time does it buy?
//
// Every sweep probe goes through runNet, so completed points are memoized
// in runcache (and persist across processes with a disk tier) exactly like
// the 8x8 figures. The sharded determinism check is deliberately uncached:
// it exists to exercise the live engine, not to be remembered.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"heteronoc/internal/core"
	"heteronoc/internal/par"
	"heteronoc/internal/plot"
	"heteronoc/internal/stats"
	"heteronoc/internal/traffic"
)

// scaleWidths are the mesh edge lengths swept by ScaleUp, beyond the
// paper's 8x8.
var scaleWidths = []int{16, 32}

// scaleMaxRate returns the top of the injection-rate grid for a w-wide
// mesh. Uniform random traffic is bisection-limited: half the packets
// cross the middle cut, whose capacity grows only linearly with w while
// the number of injectors grows quadratically, so per-node saturation
// throughput falls as 1/w. Anchoring to the 8x8 sweep ceiling (0.072,
// footnote 1) keeps every mesh swept over the same fraction of its own
// saturation range.
func scaleMaxRate(w int) float64 { return 0.072 * 8 / float64(w) }

// ScaleUp sweeps uniform random load on 16x16 and 32x32 meshes, comparing
// the baseline homogeneous design against the diagonal heterogeneous
// placement, and then audits the engine itself: a 32x32 run repeated on
// the fixed-span sharded cycle must reproduce the sequential run's
// fingerprint bit for bit.
func ScaleUp(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("scale", "Scaling to 16x16 and 32x32 meshes")
	for _, w := range scaleWidths {
		if err := scaleSweep(ctx, r, w, sc); err != nil {
			return nil, err
		}
	}
	if err := shardedCheck(ctx, r, sc); err != nil {
		return nil, err
	}
	return r, nil
}

// scaleSweep runs one mesh size's baseline-vs-diagonal load sweep and
// appends its table, figure and metrics to the report.
func scaleSweep(ctx context.Context, r *Report, w int, sc Scale) error {
	layouts := []core.Layout{
		core.NewBaseline(w, w),
		core.NewLayout(core.PlacementDiagonal, w, w, true),
	}
	rates := sweepRates(sc, scaleMaxRate(w))
	nr := len(rates)
	// The layouts x rates grid is a flat batch of independent probes, same
	// fan-out as Fig 7; each probe is memoized in runcache under its own key.
	pts, err := par.MapCtx(ctx, len(layouts)*nr, func(ctx context.Context, k int) (ratePoint, error) {
		return measurePoint(ctx, layouts[k/nr], traffic.UniformRandom{N: w * w}, rates[k%nr], sc)
	})
	if err != nil {
		return err
	}
	sums := make([]netSummary, len(layouts))
	for li, l := range layouts {
		sums[li] = summarizeSweep(l, rates, pts[li*nr:(li+1)*nr])
	}
	base, diag := sums[0], sums[1]
	// Compare average latency over the rates where the baseline is still
	// pre-knee, as in Fig 7 — a design that survives to higher loads must
	// not be judged on operating points the baseline cannot reach.
	baseKnee := 3 * base.points[0].Result.AvgLatency
	var common []int
	for i, p := range base.points {
		if p.Result.AvgLatency <= baseKnee && !p.Result.Saturated {
			common = append(common, i)
		}
	}
	if len(common) == 0 {
		common = []int{0}
	}
	for si := range sums {
		var sum float64
		for _, i := range common {
			sum += sums[si].points[i].Result.AvgLatency / sums[si].layout.FreqGHz()
		}
		sums[si].avgLatNS = sum / float64(len(common))
	}
	r.Printf("### %dx%d load-latency (ns)\n\n| inj rate | %s | %s |\n|---|---|---|\n",
		w, w, base.layout.Name, diag.layout.Name)
	for i, rate := range rates {
		r.Printf("| %.4f |", rate)
		for _, s := range sums {
			res := s.points[i].Result
			mark := ""
			if res.Saturated {
				mark = "*"
			}
			r.Printf(" %.1f%s |", res.AvgLatency/s.layout.FreqGHz(), mark)
		}
		r.Printf("\n")
	}
	r.Printf("(* = saturated)\n\n")
	prefix := fmt.Sprintf("mesh%d_", w)
	tp := stats.PctDelta(diag.satRate, base.satRate)
	lat := stats.PctReduction(diag.avgLatNS, base.avgLatNS)
	zl := stats.PctReduction(diag.zeroLoad, base.zeroLoad)
	r.Printf("Diagonal vs baseline at %dx%d: throughput %+.1f%%, avg latency %+.1f%%, zero load %+.1f%%.\n\n",
		w, w, tp, lat, zl)
	r.Metrics[prefix+"diagonal_throughput_pct"] = tp
	r.Metrics[prefix+"diagonal_latency_reduction_pct"] = lat
	r.Metrics[prefix+"diagonal_zeroload_reduction_pct"] = zl
	r.Metrics[prefix+"baseline_zeroload_ns"] = base.zeroLoad
	fig := &plot.LineChart{
		Title:  fmt.Sprintf("Scale: %dx%d load-latency", w, w),
		XLabel: "injection rate (packets/node/cycle)", YLabel: "latency (ns)",
		YMax: 6 * base.zeroLoad,
	}
	for _, s := range sums {
		ls := plot.Series{Name: s.layout.Name}
		for i, rate := range rates {
			ls.X = append(ls.X, rate)
			ls.Y = append(ls.Y, s.points[i].Result.AvgLatency/s.layout.FreqGHz())
		}
		fig.Series = append(fig.Series, ls)
	}
	r.AddFigure(fmt.Sprintf("scale_%dx%d_latency", w, w), fig)
	return nil
}

// shardedCheck replays one 32x32 run twice — the one-span kernel, then
// every stage of each cycle on fixed router spans, one per worker — and
// asserts the two final network fingerprints are identical. The
// fingerprint covers every statistics counter, so a match certifies the
// parallel engine is bit-exact at 1024 routers, not merely close. Both
// runs build their network and traffic from one netRecipe but skip the
// cache: the check exists to exercise the live engine. Wall-clock speedup
// is reported in the body only: it varies with the host (a single-core
// container reports ~1x) and must not perturb the deterministic metric
// fingerprint.
func shardedCheck(ctx context.Context, r *Report, sc Scale) error {
	const w = 32
	rate := scaleMaxRate(w) / 2 // comfortably pre-knee
	rec := layoutRecipe(core.NewBaseline(w, w), traffic.UniformRandom{N: w * w}, rate, sc)
	run := func(workers int) (uint64, time.Duration, error) {
		net, err := rec.network()
		if err != nil {
			return 0, 0, err
		}
		defer net.Close()
		if workers > 1 {
			net.SetShardWorkers(workers)
		}
		start := time.Now()
		if _, err := traffic.RunCtx(ctx, net, rec.config()); err != nil {
			return 0, 0, err
		}
		return net.Fingerprint(), time.Since(start), nil
	}
	seqFP, seqDur, err := run(1)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2 // still exercises the sharded code path
	}
	shFP, shDur, err := run(workers)
	if err != nil {
		return err
	}
	match := 0.0
	if seqFP == shFP {
		match = 1.0
	}
	r.Metrics["sharded_fingerprint_match"] = match
	r.Printf("### Sharded-tick determinism at 32x32\n\n")
	r.Printf("Sequential fingerprint `%016x`, sharded (%d workers) `%016x`: **%s**.\n",
		seqFP, workers, shFP, map[bool]string{true: "identical", false: "MISMATCH"}[match == 1])
	speedup := 0.0
	if shDur > 0 {
		speedup = seqDur.Seconds() / shDur.Seconds()
	}
	r.Printf("Wall clock: sequential %.2fs, sharded %.2fs (%.2fx; informational only — host-dependent, excluded from metrics).\n\n",
		seqDur.Seconds(), shDur.Seconds(), speedup)
	if match != 1 {
		return fmt.Errorf("scale: sharded 32x32 fingerprint %016x differs from sequential %016x", shFP, seqFP)
	}
	return nil
}
