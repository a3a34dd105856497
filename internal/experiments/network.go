package experiments

import (
	"context"
	"fmt"
	"strconv"

	"heteronoc/internal/core"
	"heteronoc/internal/fault"
	"heteronoc/internal/noc"
	"heteronoc/internal/par"
	"heteronoc/internal/plot"
	"heteronoc/internal/power"
	"heteronoc/internal/routing"
	"heteronoc/internal/runcache"
	"heteronoc/internal/stats"
	"heteronoc/internal/topology"
	"heteronoc/internal/traffic"
)

// netRecipe names every input of one network-only run: the network
// (topology, routing by name, router configs, an optional fault plan) and
// its synthetic traffic (pattern, Bernoulli or self-similar process at
// rate packets/node/cycle, the Scale's packet budgets). It is the
// package's one description of a network run: network is the only place
// that builds a network, config the only traffic.RunConfig, key the
// runcache key, and runNet the entry point.
type netRecipe struct {
	topo topology.Topology
	// routing is one of "xy", "torus-xy", "fbfly-rc", "west-first" or
	// "fault-table". Each run builds its own Algorithm: networks that step
	// at the same time must not share one.
	routing     string
	routers     []noc.RouterConfig // one per router
	faults      *fault.Plan        // nil: fault-free
	pattern     traffic.Pattern
	rate        float64
	selfSimilar bool
	sc          Scale
}

// layoutRecipe is a layout's network under pattern at rate, with the
// layout's own routing: X-Y, or dateline X-Y on a torus.
func layoutRecipe(l core.Layout, pattern traffic.Pattern, rate float64, sc Scale) netRecipe {
	alg := "xy"
	if l.Mesh.Wrap() {
		alg = "torus-xy"
	}
	return netRecipe{topo: l.Mesh, routing: alg, routers: l.RouterConfigs(), pattern: pattern, rate: rate, sc: sc}
}

// uniformRouters gives every router of t the config rc.
func uniformRouters(t topology.Topology, rc noc.RouterConfig) []noc.RouterConfig {
	out := make([]noc.RouterConfig, t.NumRouters())
	for i := range out {
		out[i] = rc
	}
	return out
}

// key addresses the recipe in runcache. The topology's name carries its
// kind, dimensions and wrap; the router configs are spelled out once per
// stretch of identical routers, which keeps a layout's key short and
// cheap (a served figure computes it on every cache hit); seed, flit
// count and cycle cap are fixed by config, so the Scale's budgets cover
// them.
func (r netRecipe) key() string {
	b := make([]byte, 0, 256)
	b = append(b, "net|"...)
	b = append(b, r.topo.Name()...)
	b = append(b, '|')
	b = append(b, r.routing...)
	b = append(b, "|rc="...)
	for i := 0; i < len(r.routers); {
		rc, n := r.routers[i], 1
		for i+n < len(r.routers) && r.routers[i+n] == rc {
			n++
		}
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, '*')
		b = strconv.AppendInt(b, int64(rc.VCs), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(rc.BufDepth), 10)
		b = append(b, '/')
		for _, on := range [...]bool{rc.Wide, rc.SplitDatapath, rc.ImprovedSA} {
			flag := byte('0')
			if on {
				flag = '1'
			}
			b = append(b, flag)
		}
		b = append(b, ',')
		i += n
	}
	if r.faults != nil {
		b = fmt.Appendf(b, "|faults=%v", r.faults.Events())
	}
	b = append(b, '|')
	b = append(b, patternKey(r.pattern)...)
	b = append(b, "|r="...)
	b = strconv.AppendFloat(b, r.rate, 'g', -1, 64)
	b = append(b, "|ss="...)
	b = strconv.AppendBool(b, r.selfSimilar)
	b = append(b, "|sc="...)
	b = append(b, r.sc.Name...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(r.sc.WarmupPackets), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(r.sc.MeasurePackets), 10)
	return string(b)
}

// network builds the recipe's network with a fresh routing algorithm and
// its fault plan armed. Fault-table routing prefers shortest paths
// through the wide (big) routers.
func (r netRecipe) network() (*noc.Network, error) {
	var alg routing.Algorithm
	var wf *routing.WestFirst
	grid, isGrid := r.topo.(topology.Grid)
	mesh, isMesh := r.topo.(*topology.Mesh)
	fb, isFBfly := r.topo.(*topology.FBfly)
	switch {
	case r.routing == "xy" && isGrid:
		alg = routing.NewXY(grid)
	case r.routing == "torus-xy" && isMesh && mesh.Wrap():
		alg = routing.NewTorusXY(mesh)
	case r.routing == "west-first" && isMesh && !mesh.Wrap():
		wf = routing.NewWestFirst(mesh)
		alg = wf
	case r.routing == "fbfly-rc" && isFBfly:
		alg = routing.NewFBflyRC(fb)
	case r.routing == "fault-table":
		big := make([]bool, len(r.routers))
		for i, rc := range r.routers {
			big[i] = rc.Wide
		}
		alg = routing.NewFaultTable(r.topo, routing.FaultTableConfig{Big: big})
	default:
		return nil, fmt.Errorf("experiments: no %q routing on %s", r.routing, r.topo.Name())
	}
	net, err := noc.New(noc.Config{Topo: r.topo, Routing: alg, Routers: r.routers, WatchdogCycles: 100000})
	if err != nil {
		return nil, err
	}
	if wf != nil {
		wf.Congestion = net.PortCongestion
	}
	if r.faults != nil {
		if err := net.SetFaultPlan(r.faults); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// dataFlits is every run's packet length: the paper's 1024-bit cache
// line, 6 flits in every layout (core.Layout.DataPacketFlits).
const dataFlits = 6

// config is the recipe's traffic: a fixed seed, and a cycle cap that
// ends deeply saturated runs.
func (r netRecipe) config() traffic.RunConfig {
	var proc traffic.Process = traffic.Bernoulli{P: r.rate}
	if r.selfSimilar {
		proc = traffic.NewSelfSimilar(r.topo.NumTerminals(), r.rate)
	}
	return traffic.RunConfig{
		Pattern:        r.pattern,
		Process:        proc,
		DataFlits:      dataFlits,
		WarmupPackets:  r.sc.WarmupPackets,
		MeasurePackets: r.sc.MeasurePackets,
		Seed:           42,
		MaxCycles:      int64(r.sc.MeasurePackets) * 40,
	}
}

// runNet drives one network-only measurement. Runs are deterministic, so
// completed results are memoized in runcache under the recipe's key;
// repeated probes, across figures or re-invocations, reuse the first run.
func runNet(ctx context.Context, r netRecipe) (traffic.RunResult, error) {
	return runcache.ForCtx(ctx, r.key(), func(ctx context.Context) (traffic.RunResult, error) {
		net, err := r.network()
		if err != nil {
			return traffic.RunResult{}, err
		}
		return traffic.RunCtx(ctx, net, r.config())
	})
}

// Fig1 reproduces the motivating heat maps: buffer and link utilization of
// the homogeneous 8x8 mesh under uniform random traffic near saturation
// (0.06 packets/node/cycle, footnote 1).
func Fig1(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("fig1", "Buffer and link utilization heat maps")
	l := core.NewBaseline(8, 8)
	res, err := runNet(ctx, layoutRecipe(l, traffic.UniformRandom{N: 64}, 0.06, sc))
	if err != nil {
		return nil, err
	}
	buf := make([]float64, 64)
	link := make([]float64, 64)
	for i, a := range res.Activity {
		buf[i] = a.BufOccupancy
		link[i] = a.LinkUtil
	}
	hb := stats.NewHeatmap("(a) Buffer utilization", 8, 8, buf)
	hl := stats.NewHeatmap("(b) Link utilization", 8, 8, link)
	r.Printf("```\n%s\n%s```\n", hb.Render(), hl.Render())
	r.Metrics["buffer_center_periphery_ratio"] = hb.CenterPeripheryRatio()
	r.Metrics["link_center_periphery_ratio"] = hl.CenterPeripheryRatio()
	lo, hi := hb.Range()
	r.Metrics["buffer_util_min"] = lo
	r.Metrics["buffer_util_max"] = hi
	r.Printf("\nThe center of the mesh is far more utilized than the periphery (paper: ~75%% vs ~35%% relative occupancy), the non-uniformity HeteroNoC exploits.\n")
	r.AddFigure("fig1a_buffer_util", &plot.HeatChart{Title: "Fig 1(a): buffer utilization", W: 8, H: 8, Values: buf})
	r.AddFigure("fig1b_link_util", &plot.HeatChart{Title: "Fig 1(b): link utilization", W: 8, H: 8, Values: link})
	return r, nil
}

// Fig2 shows the same non-uniformity on two other non-edge-symmetric
// topologies: a 4x4 concentrated mesh (C=4) and a 64-node flattened
// butterfly.
func Fig2(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("fig2", "Buffer utilization in other topologies")
	type tcase struct {
		name    string
		topo    topology.Topology
		routing string
		w, h    int
		rate    float64
	}
	cm := topology.NewCMesh(4, 4, 4)
	fb := topology.NewFBfly(4, 4, 4)
	cases := []tcase{
		{"(a) Concentrated mesh", cm, "xy", 4, 4, 0.04},
		{"(b) Flattened butterfly", fb, "fbfly-rc", 4, 4, 0.06},
	}
	rc := noc.RouterConfig{VCs: 3, BufDepth: 5}
	for _, c := range cases {
		res, err := runNet(ctx, netRecipe{topo: c.topo, routing: c.routing, routers: uniformRouters(c.topo, rc),
			pattern: traffic.UniformRandom{N: 64}, rate: c.rate, sc: sc})
		if err != nil {
			return nil, err
		}
		buf := make([]float64, len(res.Activity))
		for i, a := range res.Activity {
			buf[i] = a.BufOccupancy
		}
		h := stats.NewHeatmap(c.name, c.w, c.h, buf)
		r.Printf("```\n%s```\n\n", h.Render())
		key := "cmesh"
		if c.topo == topology.Topology(fb) {
			key = "fbfly"
		}
		r.Metrics[key+"_center_periphery_ratio"] = h.CenterPeripheryRatio()
		r.AddFigure("fig2_"+key+"_buffer_util", &plot.HeatChart{Title: "Fig 2: " + key + " buffer utilization", W: c.w, H: c.h, Values: buf})
	}
	r.Printf("Both non-edge-symmetric topologies show the hot-center pattern under deterministic routing.\n")
	return r, nil
}

// Table1 renders the router design-point table and checks the conservation
// accounting and power-model calibration against the published numbers.
func Table1() (*Report, error) {
	r := newReport("table1", "Router design points and resource accounting")
	hetero := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	r.Printf("%s\n", core.Table1(hetero))
	base := core.NewBaseline(8, 8).Accounting()
	het := hetero.Accounting()
	r.Metrics["buffer_bits_homo"] = float64(base.BufferBits)
	r.Metrics["buffer_bits_hetero"] = float64(het.BufferBits)
	r.Metrics["buffer_bit_reduction_pct"] = stats.PctReduction(float64(het.BufferBits), float64(base.BufferBits))
	r.Metrics["total_vcs"] = float64(het.TotalVCs)
	r.Metrics["min_small_routers"] = float64(core.MinSmallRouters(8))
	m := power.NewModel()
	for cls, spec := range core.Specs() {
		var router int
		switch cls {
		case core.ClassBaseline:
			r.Metrics["cal_power_baseline"] = m.CalibrationPower(power.ParamsFor(core.NewBaseline(8, 8), 0))
			continue
		case core.ClassSmall:
			router = 1 // (1,0) is small under the diagonal layout
		case core.ClassBig:
			router = 0 // (0,0) is big
		}
		r.Metrics["cal_power_"+cls.String()] = m.CalibrationPower(power.ParamsFor(hetero, router))
		_ = spec
	}
	return r, nil
}

// sweepRates returns the injection-rate grid for a sweep up to max.
func sweepRates(sc Scale, max float64) []float64 {
	n := sc.SweepPoints
	if n < 2 {
		n = 2
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = max * float64(i+1) / float64(n)
	}
	return out
}

// netSummary holds one layout's sweep outcome.
type netSummary struct {
	layout    core.Layout
	points    []traffic.SweepPoint
	powers    []float64 // Watts per point
	zeroLoad  float64   // ns at the lightest load
	satRate   float64   // accepted packets/node/cycle at the latency knee
	avgLatNS  float64   // mean pre-knee latency in ns
	breakdown traffic.RunResult
}

// ratePoint is one measured operating point of a sweep: the run result and
// its power-model price.
type ratePoint struct {
	res traffic.RunResult
	pow float64
}

// measurePoint runs one (layout, rate) probe. Probes are independent (each
// builds its own network and a fixed-seed traffic source), so the sweeps
// fan them out on the par worker pool without changing any result.
func measurePoint(ctx context.Context, l core.Layout, pattern traffic.Pattern, rate float64, sc Scale) (ratePoint, error) {
	res, err := runNet(ctx, layoutRecipe(l, pattern, rate, sc))
	if err != nil {
		return ratePoint{}, err
	}
	return ratePoint{res: res, pow: power.Network(power.NewModel(), l, res.Activity).Total()}, nil
}

// summarizeSweep folds one layout's measured points (in rate order) into a
// netSummary.
func summarizeSweep(l core.Layout, rates []float64, pts []ratePoint) netSummary {
	s := netSummary{layout: l}
	for i, rate := range rates {
		s.points = append(s.points, traffic.SweepPoint{Rate: rate, Result: pts[i].res})
		s.powers = append(s.powers, pts[i].pow)
	}
	f := l.FreqGHz()
	s.zeroLoad = s.points[0].Result.AvgLatency / f
	knee := 3 * s.points[0].Result.AvgLatency
	var latSum float64
	var latN int
	s.satRate = s.points[0].Result.AcceptedRate
	for _, p := range s.points {
		if p.Result.AvgLatency <= knee && !p.Result.Saturated {
			if p.Result.AcceptedRate > s.satRate {
				s.satRate = p.Result.AcceptedRate
			}
			latSum += p.Result.AvgLatency / f
			latN++
		}
	}
	if latN > 0 {
		s.avgLatNS = latSum / float64(latN)
	}
	return s
}

// Fig7 sweeps uniform random traffic across the seven configurations.
func Fig7(ctx context.Context, sc Scale) (*Report, error) {
	return loadSweepReport(ctx, sc, "fig7", "UR load sweep", false)
}

// Fig9 repeats the sweep with nearest-neighbor traffic, where the paper
// reports the one anomaly (hetero saturates earlier; Center beats Diagonal).
func Fig9(ctx context.Context, sc Scale) (*Report, error) {
	return loadSweepReport(ctx, sc, "fig9", "Nearest-neighbor sweep", true)
}

func loadSweepReport(ctx context.Context, sc Scale, id, title string, nn bool) (*Report, error) {
	r := newReport(id, title)
	maxRate := 0.072
	if nn {
		maxRate = 0.24
	}
	rates := sweepRates(sc, maxRate)
	layouts := core.AllLayouts(8, 8)
	// The full layouts x rates grid is one flat batch of independent probes;
	// fanning the whole grid out (rather than layout by layout) keeps every
	// worker busy even when one layout saturates and runs long.
	nr := len(rates)
	pts, err := par.MapCtx(ctx, len(layouts)*nr, func(ctx context.Context, k int) (ratePoint, error) {
		l := layouts[k/nr]
		var pattern traffic.Pattern = traffic.UniformRandom{N: 64}
		if nn {
			pattern = traffic.NearestNeighbor{Grid: l.Mesh}
		}
		return measurePoint(ctx, l, pattern, rates[k%nr], sc)
	})
	if err != nil {
		return nil, err
	}
	sums := make([]netSummary, len(layouts))
	for li, l := range layouts {
		sums[li] = summarizeSweep(l, rates, pts[li*nr:(li+1)*nr])
	}
	base := sums[0]
	// Average latency is compared over a common set of rates: the points
	// where the baseline is still below its latency knee. Without a shared
	// rate set, a design that survives to higher loads would be judged on
	// harder operating points than the baseline.
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
	// (a) latency curves.
	r.Printf("### (a) Load-latency (ns)\n\n| inj rate |")
	for _, s := range sums {
		r.Printf(" %s |", s.layout.Name)
	}
	r.Printf("\n|---|%s\n", strings1(len(sums)))
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
	// (b) summary bars.
	r.Printf("### (b) Improvement over baseline (%%)\n\n| config | throughput | avg latency | zero load |\n|---|---|---|---|\n")
	for _, s := range sums[1:] {
		tp := stats.PctDelta(s.satRate, base.satRate)
		lat := stats.PctReduction(s.avgLatNS, base.avgLatNS)
		zl := stats.PctReduction(s.zeroLoad, base.zeroLoad)
		r.Printf("| %s | %+.1f | %+.1f | %+.1f |\n", s.layout.Name, tp, lat, zl)
		key := keyName(s.layout.Name)
		r.Metrics[key+"_throughput_pct"] = tp
		r.Metrics[key+"_latency_reduction_pct"] = lat
		r.Metrics[key+"_zeroload_reduction_pct"] = zl
	}
	// (c) power at the highest common load.
	r.Printf("\n### (c) Network power (W) across load\n\n| inj rate | Baseline |")
	powerSums := []netSummary{sums[4], sums[5], sums[6]} // the +BL designs
	for _, s := range powerSums {
		r.Printf(" %s |", s.layout.Name)
	}
	r.Printf("\n|---|---|%s\n", strings1(len(powerSums)))
	for i, rate := range rates {
		r.Printf("| %.4f | %.1f |", rate, base.powers[i])
		for _, s := range powerSums {
			r.Printf(" %.1f |", s.powers[i])
		}
		r.Printf("\n")
	}
	for _, s := range powerSums {
		var redSum float64
		for i := range rates {
			redSum += stats.PctReduction(s.powers[i], base.powers[i])
		}
		r.Metrics[keyName(s.layout.Name)+"_power_reduction_pct"] = redSum / float64(len(rates))
	}
	// Energy-delay product at the highest common pre-knee load: the
	// combined power-performance figure of merit behind the paper's "best
	// configuration" claim for the diagonal placement.
	mid := common[len(common)-1]
	baseEDP := base.powers[mid] * base.points[mid].Result.AvgLatency / base.layout.FreqGHz()
	for _, s := range powerSums {
		edp := s.powers[mid] * s.points[mid].Result.AvgLatency / s.layout.FreqGHz()
		r.Metrics[keyName(s.layout.Name)+"_edp_reduction_pct"] = stats.PctReduction(edp, baseEDP)
	}
	// Figures: (a) latency curves (clipped above the knee region), (c)
	// power curves.
	lat := &plot.LineChart{Title: title + ": load-latency", XLabel: "injection rate (packets/node/cycle)", YLabel: "latency (ns)", YMax: 6 * base.zeroLoad}
	pow := &plot.LineChart{Title: title + ": network power", XLabel: "injection rate (packets/node/cycle)", YLabel: "power (W)"}
	for _, s := range sums {
		ls := plot.Series{Name: s.layout.Name}
		ps := plot.Series{Name: s.layout.Name}
		for i, rate := range rates {
			ls.X = append(ls.X, rate)
			ls.Y = append(ls.Y, s.points[i].Result.AvgLatency/s.layout.FreqGHz())
			ps.X = append(ps.X, rate)
			ps.Y = append(ps.Y, s.powers[i])
		}
		lat.Series = append(lat.Series, ls)
		pow.Series = append(pow.Series, ps)
	}
	r.AddFigure(id+"a_latency", lat)
	r.AddFigure(id+"c_power", pow)
	bars := &plot.BarChart{Title: title + ": improvement over baseline", YLabel: "%", Series: []string{"throughput", "avg latency", "zero load"}}
	for _, s := range sums[1:] {
		bars.Groups = append(bars.Groups, plot.BarGroup{Label: s.layout.Name, Values: []float64{
			stats.PctDelta(s.satRate, base.satRate),
			stats.PctReduction(s.avgLatNS, base.avgLatNS),
			stats.PctReduction(s.zeroLoad, base.zeroLoad),
		}})
	}
	r.AddFigure(id+"b_summary", bars)
	return r, nil
}

func strings1(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += "---|"
	}
	return out
}

func keyName(name string) string {
	k := []rune{}
	for _, c := range name {
		switch {
		case c >= 'A' && c <= 'Z':
			k = append(k, c+32)
		case (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'):
			k = append(k, c)
		default:
			if len(k) == 0 || k[len(k)-1] != '_' {
				k = append(k, '_')
			}
		}
	}
	for len(k) > 0 && k[len(k)-1] == '_' {
		k = k[:len(k)-1]
	}
	return string(k)
}

// Fig8 reports the latency and power breakdowns at a moderately high UR
// load (Figure 8).
func Fig8(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("fig8", "Latency and power breakdowns (UR)")
	const rate = 0.048
	layouts := []core.Layout{
		core.NewBaseline(8, 8),
		core.NewLayout(core.PlacementCenter, 8, 8, true),
		core.NewLayout(core.PlacementDiagonal, 8, 8, true),
		core.NewLayout(core.PlacementRow25, 8, 8, true),
	}
	pm := power.NewModel()
	// The four layout probes are independent; fan them out.
	ress, err := par.MapCtx(ctx, len(layouts), func(ctx context.Context, i int) (traffic.RunResult, error) {
		return runNet(ctx, layoutRecipe(layouts[i], traffic.UniformRandom{N: 64}, rate, sc))
	})
	if err != nil {
		return nil, err
	}
	r.Printf("### (a) Latency breakdown (cycles)\n\n| config | queuing | blocking | transfer | total |\n|---|---|---|---|---|\n")
	var basePow power.Breakdown
	var pows []power.Breakdown
	var breakdowns [][]float64
	for i, l := range layouts {
		res := ress[i]
		breakdowns = append(breakdowns, []float64{res.QueuingLatency, res.BlockingLatency, res.TransferLatency})
		r.Printf("| %s | %.1f | %.1f | %.1f | %.1f |\n", l.Name,
			res.QueuingLatency, res.BlockingLatency, res.TransferLatency, res.AvgLatency)
		key := keyName(l.Name)
		r.Metrics[key+"_blocking"] = res.BlockingLatency
		r.Metrics[key+"_queuing"] = res.QueuingLatency
		r.Metrics[key+"_transfer"] = res.TransferLatency
		pb := power.Network(pm, l, res.Activity)
		pows = append(pows, pb)
		if i == 0 {
			basePow = pb
		}
	}
	r.Printf("\n### (b) Power breakdown (W)\n\n| config | links | xbar | arbiters+logic | buffers | total |\n|---|---|---|---|---|---|\n")
	for i, l := range layouts {
		pb := pows[i]
		r.Printf("| %s | %.1f | %.1f | %.1f | %.1f | %.1f |\n", l.Name,
			pb.Links, pb.Xbar, pb.Arbiters, pb.Buffers, pb.Total())
		key := keyName(l.Name)
		r.Metrics[key+"_power_total"] = pb.Total()
		r.Metrics[key+"_power_buffers"] = pb.Buffers
	}
	r.Metrics["diagonal_bl_buffer_power_reduction_pct"] =
		stats.PctReduction(pows[2].Buffers, basePow.Buffers)
	// Figures: stacked breakdowns in the paper's Figure 8 style.
	latFig := &plot.BarChart{Title: "Fig 8(a): latency breakdown", YLabel: "cycles",
		Series: []string{"queuing", "blocking", "transfer"}, Stacked: true}
	powFig := &plot.BarChart{Title: "Fig 8(b): power breakdown", YLabel: "W",
		Series: []string{"links", "xbar", "arbiters+logic", "buffers"}, Stacked: true}
	for i, l := range layouts {
		latFig.Groups = append(latFig.Groups, plot.BarGroup{Label: l.Name, Values: breakdowns[i]})
		powFig.Groups = append(powFig.Groups, plot.BarGroup{Label: l.Name,
			Values: []float64{pows[i].Links, pows[i].Xbar, pows[i].Arbiters, pows[i].Buffers}})
	}
	r.AddFigure("fig8a_latency_breakdown", latFig)
	r.AddFigure("fig8b_power_breakdown", powFig)
	return r, nil
}
