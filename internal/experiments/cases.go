package experiments

import (
	"context"

	"heteronoc/internal/cmp"
	"heteronoc/internal/cmp/mem"
	"heteronoc/internal/core"
	"heteronoc/internal/dse"
	"heteronoc/internal/par"
	"heteronoc/internal/plot"
	"heteronoc/internal/routing"
	"heteronoc/internal/runcache"
	"heteronoc/internal/stats"
	"heteronoc/internal/trace"
)

// mcConfig is one scenario of the Section 6 co-evaluation.
type mcConfig struct {
	name      string
	layout    core.Layout
	placement mem.Placement
}

// fig13Configs returns the evaluated scenarios: the corner-placement
// homogeneous reference plus the three studied combinations.
func fig13Configs() []mcConfig {
	base := core.NewBaseline(8, 8)
	het := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	return []mcConfig{
		{"Corners_homoNoC (reference)", base, mem.PlacementCorners},
		{"Diamond_homoNoC", base, mem.PlacementDiamond},
		{"Diamond_heteroNoC", het, mem.PlacementDiamond},
		{"Diagonal_heteroNoC", het, mem.PlacementDiagonal},
	}
}

// urTraces builds the closed-loop uniform-random workload (every access a
// memory request, MSHR-limited).
func urTraces(n int) []trace.Reader {
	out := make([]trace.Reader, n)
	for i := range out {
		out[i] = trace.NewURGenerator(i, 128)
	}
	return out
}

// Fig13 co-evaluates memory-controller placement with HeteroNoC: round-trip
// request-response latency reductions and the latency/jitter scatter of
// requests to the controllers.
func Fig13(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("fig13", "Memory-controller placement co-evaluation")
	configs := fig13Configs()
	benches := append([]string{"UR"}, append(append([]string{},
		trace.CommercialNames()...), trace.PARSECNames()...)...)

	type cell struct {
		rtt   float64
		mcLat stats.Summary
	}
	var jobs []func(ctx context.Context) (appResult, error)
	for _, b := range benches {
		for _, cfgc := range configs {
			b, cfgc := b, cfgc
			jobs = append(jobs, func(ctx context.Context) (appResult, error) {
				w, h := cfgc.layout.Mesh.Dims()
				mcTiles := mem.Tiles(cfgc.placement, w, h)
				if b == "UR" {
					return runURApp(ctx, cfgc.layout, sc, mcTiles)
				}
				return runApp(ctx, cfgc.layout, b, sc, mcTiles, false)
			})
		}
	}
	flat, err := runAll(ctx, jobs)
	if err != nil {
		return nil, err
	}
	results := make(map[string][]cell)
	for bi, b := range benches {
		for ci := range configs {
			res := flat[bi*len(configs)+ci]
			results[b] = append(results[b], cell{rtt: res.MissRTT.Mean(), mcLat: res.MCLatency})
		}
	}
	r.Printf("### (a) Round-trip request-response latency reduction over Corners_homoNoC (%%)\n\n")
	r.Printf("| workload | Diamond_homoNoC | Diamond_heteroNoC | Diagonal_heteroNoC |\n|---|---|---|---|\n")
	var sums [3]float64
	for _, b := range benches {
		cells := results[b]
		r.Printf("| %s |", b)
		for i := 1; i < 4; i++ {
			red := stats.PctReduction(cells[i].rtt, cells[0].rtt)
			sums[i-1] += red
			r.Printf(" %.1f |", red)
		}
		r.Printf("\n")
	}
	n := float64(len(benches))
	r.Metrics["diamond_homo_rtt_reduction_pct"] = sums[0] / n
	r.Metrics["diamond_hetero_rtt_reduction_pct"] = sums[1] / n
	r.Metrics["diagonal_hetero_rtt_reduction_pct"] = sums[2] / n

	r.Printf("\n### (b) Request-to-controller latency vs jitter\n\n")
	r.Printf("| config | mean latency (cycles) | std dev | CoV |\n|---|---|---|---|\n")
	for i, cfgc := range configs {
		var agg stats.Summary
		for _, b := range benches {
			agg.Merge(results[b][i].mcLat)
		}
		r.Printf("| %s | %.1f | %.2f | %.3f |\n", cfgc.name, agg.Mean(), agg.StdDev(), agg.CoV())
		r.Metrics[keyName(cfgc.name)+"_mc_cov"] = agg.CoV()
	}
	r.Printf("\nDiagonal placement on the HeteroNoC attaches every controller to a big router: both the mean latency and its variance drop (paper: CoV 0.66 -> 0.46).\n")
	sc13 := &plot.Scatter{
		Title:  "Fig 13(b): request latency vs jitter",
		XLabel: "std dev of request-to-MC latency (cycles)",
		YLabel: "mean request-to-MC latency (cycles)",
	}
	for i, cfgc := range configs {
		sc13.Names = append(sc13.Names, cfgc.name)
		for _, b := range benches {
			mc := results[b][i].mcLat
			sc13.Points = append(sc13.Points, plot.ScatterPoint{Label: b, X: mc.StdDev(), Y: mc.Mean(), Series: i})
		}
	}
	r.AddFigure("fig13b_jitter", sc13)
	return r, nil
}

// runURApp runs the closed-loop UR workload on a layout. Deterministic,
// so memoized in runcache like runApp.
func runURApp(ctx context.Context, l core.Layout, sc Scale, mcTiles []int) (appResult, error) {
	return runcache.ForCtx(ctx, urAppKey(l, sc, mcTiles), func(ctx context.Context) (appResult, error) {
		s, err := cmp.New(cmp.Config{Layout: l, Traces: urTraces(l.Mesh.NumTerminals()), MCTiles: mcTiles})
		if err != nil {
			return appResult{}, err
		}
		// No warmup: UR is all cold misses by construction (the paper's
		// closed-loop evaluation with 16 outstanding requests per node).
		if err := s.RunCtx(ctx, sc.CMPCycles); err != nil {
			return appResult{}, err
		}
		return collect(s, l), nil
	})
}

// idleTrace effectively never issues memory operations (for alone-run
// baselines): enormous gaps, and the rare access goes to a remote unused
// region so warmup cannot alias an active core's working set.
type idleTrace struct{}

func (idleTrace) Next() trace.Entry {
	return trace.Entry{Gap: 1 << 20, Addr: 1 << 44}
}

// asymTraces builds the Section 7 workload: libquantum on the four large
// corner cores, SPECjbb threads on the 60 small cores. active selects
// which cores actually run (for alone baselines).
func asymTraces(largeTiles []int, active func(tile int) bool) ([]trace.Reader, []cmp.CoreConfig, error) {
	libq, err := trace.ProfileByName("libquantum")
	if err != nil {
		return nil, nil, err
	}
	jbb, err := trace.ProfileByName("SPECjbb")
	if err != nil {
		return nil, nil, err
	}
	isLarge := map[int]bool{}
	for _, t := range largeTiles {
		isLarge[t] = true
	}
	trs := make([]trace.Reader, 64)
	cores := make([]cmp.CoreConfig, 64)
	for i := 0; i < 64; i++ {
		switch {
		case !active(i):
			trs[i] = idleTrace{}
			cores[i] = cmp.SmallCore()
		case isLarge[i]:
			// libquantum lives in its own address-space region so its
			// private footprint cannot alias the SPECjbb regions.
			trs[i] = trace.NewGeneratorAt(libq, i, 128, 1<<26)
			cores[i] = cmp.LargeCore()
		default:
			trs[i] = trace.NewGenerator(jbb, i, 128)
			cores[i] = cmp.SmallCore()
		}
	}
	return trs, cores, nil
}

// asymConfig is one scenario of Figure 14.
type asymConfig struct {
	name   string
	layout core.Layout
	table  bool
}

// Fig14 evaluates the asymmetric CMP: 4 large cores at the corners, 60
// small cores, on the homogeneous network, the Diagonal+BL HeteroNoC with
// X-Y routing, and the HeteroNoC with table-based routing (plus escape
// VCs) for large-core flows.
func Fig14(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("fig14", "Asymmetric CMP: weighted and harmonic speedup")
	largeTiles := []int{0, 7, 56, 63}
	configs := []asymConfig{
		{"HomoNoC-XY", core.NewBaseline(8, 8), false},
		{"HeteroNoC-XY", core.NewLayout(core.PlacementDiagonal, 8, 8, true), false},
		{"HeteroNoC-Table+XY", core.NewLayout(core.PlacementDiagonal, 8, 8, true), true},
	}
	type speedups struct{ weighted, harmonic float64 }
	isLarge := func(t int) bool { return t == 0 || t == 7 || t == 56 || t == 63 }
	small := func(t int) bool { return !isLarge(t) }
	// Each config needs three independent runs (libquantum alone, SPECjbb
	// alone, together); the 3x3 grid is one flat batch on the worker pool.
	// Each run is memoized as its per-tile IPC vector, the only thing the
	// speedups read. An uncached job builds its own System — and its own
	// routing table, since an Algorithm must not be shared across
	// concurrently stepping networks.
	actives := []func(int) bool{isLarge, small, func(int) bool { return true }}
	ipcs, err := par.MapCtx(ctx, len(configs)*len(actives), func(ctx context.Context, k int) ([]float64, error) {
		c := configs[k/len(actives)]
		active := actives[k%len(actives)]
		key := asymKey(c.layout, c.table, largeTiles, active, sc)
		return runcache.ForCtx(ctx, key, func(ctx context.Context) ([]float64, error) {
			return runAsym(ctx, c, largeTiles, active, sc)
		})
	})
	if err != nil {
		return nil, err
	}
	var outs []speedups
	r.Printf("| config | weighted speedup | harmonic speedup |\n|---|---|---|\n")
	for ci, c := range configs {
		aloneLibq, aloneJbb, together := ipcs[ci*3], ipcs[ci*3+1], ipcs[ci*3+2]
		libqRatio := avgIPCOf(together, isLarge) / avgIPCOf(aloneLibq, isLarge)
		jbbRatio := avgIPCOf(together, small) / avgIPCOf(aloneJbb, small)
		// Harmonic speedup uses the slowest SPECjbb thread (Section 7).
		jbbSlowest := minIPCOf(together, small) / minIPCOf(aloneJbb, small)
		ws := libqRatio + jbbRatio
		hs := 2 / (1/libqRatio + 1/jbbSlowest)
		outs = append(outs, speedups{ws, hs})
		r.Printf("| %s | %.3f | %.3f |\n", c.name, ws, hs)
		r.Metrics[keyName(c.name)+"_weighted"] = ws
		r.Metrics[keyName(c.name)+"_harmonic"] = hs
	}
	r.Metrics["table_ws_gain_pct"] = stats.PctDelta(outs[2].weighted, outs[0].weighted)
	r.Metrics["hetero_ws_gain_pct"] = stats.PctDelta(outs[1].weighted, outs[0].weighted)
	wsBars := &plot.BarChart{Title: "Fig 14(b): asymmetric-CMP speedups", YLabel: "speedup", Series: []string{"weighted", "harmonic"}}
	for i, c := range configs {
		wsBars.Groups = append(wsBars.Groups, plot.BarGroup{Label: c.name, Values: []float64{outs[i].weighted, outs[i].harmonic}})
	}
	r.AddFigure("fig14b_speedup", wsBars)
	r.Printf("\nTable-based routing expedites libquantum packets through the big routers while decongesting the small routers for SPECjbb (paper: +6%% and +11%% weighted speedup).\n")
	return r, nil
}

// runAsym runs one Figure 14 system — libquantum on the active large
// tiles, SPECjbb on the other active tiles — and returns every tile's IPC,
// indexed by tile.
func runAsym(ctx context.Context, c asymConfig, largeTiles []int, active func(int) bool, sc Scale) ([]float64, error) {
	var alg routing.Algorithm
	if c.table {
		alg = routing.NewTableXY(c.layout.Mesh, routing.TableXYConfig{
			Flagged: largeTiles,
			Big:     c.layout.BigSet(),
		})
	}
	trs, cores, err := asymTraces(largeTiles, active)
	if err != nil {
		return nil, err
	}
	s, err := cmp.New(cmp.Config{Layout: c.layout, Traces: trs, Cores: cores, Routing: alg})
	if err != nil {
		return nil, err
	}
	if err := s.Warmup(ctx, sc.CMPWarmupEntries); err != nil {
		return nil, err
	}
	if err := s.RunCtx(ctx, sc.CMPCycles); err != nil {
		return nil, err
	}
	ipc := make([]float64, len(s.Tiles))
	for _, t := range s.Tiles {
		ipc[t.ID] = t.Core.IPC()
	}
	return ipc, nil
}

func avgIPCOf(ipc []float64, sel func(int) bool) float64 {
	var sum float64
	var n int
	for t, v := range ipc {
		if sel(t) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func minIPCOf(ipc []float64, sel func(int) bool) float64 {
	min := -1.0
	for t, v := range ipc {
		if sel(t) && (min < 0 || v < min) {
			min = v
		}
	}
	return min
}

// DSE reproduces the footnote-4 exploration: candidate counts, a symmetry-
// reduced scored sweep on the 4x4 mesh, and the diagonal placement's rank.
func DSE(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("dse", "4x4 design-space exploration")
	r.Printf("Candidate placements on a 4x4 mesh (paper footnote 4):\n\n")
	r.Printf("| split (small, big) | candidates |\n|---|---|\n")
	for _, k := range []int{4, 6, 8} {
		c := dse.Combinations(16, k)
		r.Printf("| (%d, %d) | %s |\n", 16-k, k, c.String())
		r.Metrics[keyNameInt("candidates", k)] = float64(c.Int64())
	}
	r.Printf("| 8x8: (48, 16) | %s (infeasible to sweep) |\n\n", dse.Combinations(64, 16).String())
	res, err := dse.ExploreCtx(ctx, dse.EvalConfig{
		W: 4, H: 4, BigCount: 4, LinkRedist: true,
		InjectionRate: 0.06,
		Packets:       sc.DSEPackets,
		MaxCandidates: sc.DSECandidates,
		Seed:          7,
	})
	if err != nil {
		return nil, err
	}
	r.Printf("Scored %d symmetry-reduced placements of 4 big routers (+BL, UR probe at 0.06):\n\n", len(res))
	top := 5
	if len(res) < top {
		top = len(res)
	}
	r.Printf("| rank | big routers | avg latency (cycles) |\n|---|---|---|\n")
	for i := 0; i < top; i++ {
		r.Printf("| %d | %v | %.1f |\n", i+1, res[i].Big, res[i].AvgLatency)
	}
	r.Metrics["explored"] = float64(len(res))
	r.Metrics["best_latency"] = res[0].AvgLatency
	r.Metrics["worst_latency"] = res[len(res)-1].AvgLatency
	return r, nil
}

func keyNameInt(prefix string, k int) string {
	return prefix + "_" + string(rune('0'+k/10)) + string(rune('0'+k%10))
}
