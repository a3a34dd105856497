package experiments

import (
	"context"
	"fmt"

	"heteronoc/internal/core"
	"heteronoc/internal/dse"
	"heteronoc/internal/runcache"
)

// DSESearch is the multi-objective design-space search extension: NSGA-II
// over big-router placements, minimizing {probe latency, network power,
// router area} under an area budget.
//
// Four parts:
//
//	A. The 4x4/8-big space the paper sweeps exhaustively (footnote 4:
//	   C(16,8) = 12870 placements). The search re-finds the exhaustive
//	   optimum with a small fraction of the evaluations; at full scale the
//	   report verifies that claim live against dse.Explore.
//	B. The 8x8 space the paper calls infeasible to sweep (C(64,16) =
//	   4.89e14). Under a mixed probe — bulk uniform traffic plus the
//	   hot-center and MC-incast classes the paper judges layouts on — the
//	   hand-designed Diagonal X sits within a few percent of the best
//	   placement evolution finds, and the search winners reproduce its
//	   signature: all four corners big plus center coverage.
//	C. A 16x16 probe of the same machinery at the scale ceiling.
//	D. A repeat of the part-A search: every evaluation answers from the
//	   runcache archive, zero simulations (the cross-run dedup gate).
func DSESearch(ctx context.Context, sc Scale) (*Report, error) {
	r := newReport("dse-search", "Multi-objective placement search (extension)")

	// --- Part A: re-find the exhaustively known 4x4 optimum ---
	cfgA := dse.SearchConfig{
		Eval: dse.EvalConfig{
			W: 4, H: 4, LinkRedist: true,
			InjectionRate: 0.06, Packets: sc.DSEPackets, Seed: 7,
		},
		MinBig: 8, MaxBig: 8,
		PopSize:     sc.DSESearchPop,
		Generations: sc.DSESearchGens,
		EvalBudget:  sc.DSESearchBudget,
		Seed:        1,
	}
	resA, err := dse.SearchCtx(ctx, cfgA)
	if err != nil {
		return nil, err
	}
	if len(resA.Front) == 0 {
		return nil, fmt.Errorf("dse-search: 4x4 search returned an empty front (all saturated: %v)", resA.AllSaturated)
	}
	bestA := resA.Front[0]
	space := 12870.0 // C(16,8), paper footnote 4
	evalsPct := float64(resA.Evals) / space * 100
	r.Printf("### A. 4x4, 8 big routers: search vs exhaustive sweep\n\n")
	r.Printf("The space has C(16,8) = 12870 placements. The search scored %d (%.1f%% of the space, %d archive hits) over %d generations and reports %v at %.3f cycles as latency-optimal.\n\n",
		resA.Evals, evalsPct, resA.ArchiveHits, resA.Generations, bestA.Big, bestA.AvgLatency)
	r.Metrics["search4x4_evals"] = float64(resA.Evals)
	r.Metrics["search4x4_evals_pct_of_space"] = evalsPct
	r.Metrics["search4x4_best_latency"] = bestA.AvgLatency
	r.Metrics["search4x4_front_size"] = float64(len(resA.Front))

	// At full scale, verify against the exhaustive sweep live; quick runs
	// trust the pinned full-scale result (the sweep costs more than the
	// search it validates).
	if sc.DSESearchBudget >= 900 {
		exh, err := dse.ExploreCtx(ctx, dse.EvalConfig{
			W: 4, H: 4, BigCount: 8, LinkRedist: true,
			InjectionRate: 0.06, Packets: sc.DSEPackets, Seed: 7,
		})
		if err != nil {
			return nil, err
		}
		exhBest := exh[0]
		match := 0.0
		if fmt.Sprint(exhBest.Big) == fmt.Sprint(bestA.Big) {
			match = 1
		}
		r.Printf("Exhaustive sweep (%d symmetry-reduced orbits): optimum %v at %.3f cycles — search found the exact optimum: %v, with %.1f%% of the evaluations.\n\n",
			len(exh), exhBest.Big, exhBest.AvgLatency, match == 1, evalsPct)
		r.Metrics["search4x4_found_exhaustive_optimum"] = match
		r.Metrics["search4x4_gap_pct"] = (bestA.AvgLatency - exhBest.AvgLatency) / exhBest.AvgLatency * 100
	}

	// --- Part B: 8x8 under the mixed probe, diagonal as near-optimum ---
	evalB := dse.EvalConfig{
		W: 8, H: 8, LinkRedist: true,
		InjectionRate: 0.05, Packets: maxInt(sc.DSEPackets, 1000), Seed: 7,
		Workload: "mixed",
	}
	cfgB := dse.SearchConfig{
		Eval:   evalB,
		MinBig: 12, MaxBig: 16,
		PopSize:     sc.DSESearchPop,
		Generations: sc.DSESearchGens,
		EvalBudget:  sc.DSESearchBudget,
		Seed:        1,
	}
	resB, err := dse.SearchCtx(ctx, cfgB)
	if err != nil {
		return nil, err
	}
	evalB.BigCount = 16
	diag, err := dse.EvaluateCtx(ctx, evalB, core.BigRouters(core.PlacementDiagonal, 8, 8))
	if err != nil {
		return nil, err
	}
	if len(resB.Front) == 0 {
		return nil, fmt.Errorf("dse-search: 8x8 search returned an empty front")
	}
	bestB := resB.Front[0]
	gap := (diag.AvgLatency - bestB.AvgLatency) / bestB.AvgLatency * 100
	// Place the diagonal relative to the search archive: is it on the
	// Pareto front of everything the search evaluated, plus itself?
	pool := append(append([]dse.Candidate(nil), resB.Front...), diag)
	budget := diag.AreaMM2 // "no more silicon than the full 16-big design"
	onFront := 0.0
	for _, i := range dse.ParetoFront(pool, budget) {
		if fmt.Sprint(pool[i].Big) == fmt.Sprint(diag.Big) {
			onFront = 1
		}
	}
	r.Printf("### B. 8x8, 12-16 big routers, mixed probe (uniform + hot-center + MC-incast)\n\n")
	r.Printf("The space is C(64,16) = 4.89e14 placements — the paper sweeps none of it and designs Diagonal X by hand. The search scored %d placements over %d generations; best found %v at %.3f cycles.\n\n",
		resB.Evals, resB.Generations, bestB.Big, bestB.AvgLatency)
	r.Printf("Diagonal X scores %.3f cycles — %.2f%% from the searched best — and %s the Pareto front of the search's archive extended with itself.\n\n",
		diag.AvgLatency, gap, map[bool]string{true: "sits on", false: "is dominated off"}[onFront == 1])
	sig := diagonalSignature(bestB.Big)
	r.Printf("Search winner signature: corners big = %v, center coverage = %v — the structural features of the hand-designed diagonal.\n\n",
		sig.corners == 4, sig.center > 0)
	r.Metrics["search8x8_evals"] = float64(resB.Evals)
	r.Metrics["search8x8_best_latency"] = bestB.AvgLatency
	r.Metrics["diagonal8x8_latency"] = diag.AvgLatency
	r.Metrics["diagonal8x8_gap_pct"] = gap
	r.Metrics["diagonal8x8_on_front"] = onFront
	r.Metrics["diagonal8x8_feasible"] = boolMetric(!diag.Saturated)
	r.Metrics["search8x8_winner_corners"] = float64(sig.corners)
	r.Metrics["search8x8_winner_center"] = float64(sig.center)

	// --- Part C: 16x16 probe at the scale ceiling ---
	cfgC := dse.SearchConfig{
		Eval: dse.EvalConfig{
			W: 16, H: 16, LinkRedist: true,
			InjectionRate: 0.03, Packets: maxInt(sc.DSEPackets, 3000), Seed: 7,
		},
		MinBig: 64, MaxBig: 64,
		PopSize:     minInt(8, sc.DSESearchPop),
		Generations: 2,
		EvalBudget:  3 * minInt(8, sc.DSESearchPop),
		Seed:        1,
	}
	resC, err := dse.SearchCtx(ctx, cfgC)
	if err != nil {
		return nil, err
	}
	r.Printf("### C. 16x16 probe (C(256,64) placements)\n\n")
	if len(resC.Front) > 0 {
		r.Printf("A short probe search (%d evaluations) stays unsaturated at rate %.2f and returns a %d-point front; best %.3f cycles.\n\n",
			resC.Evals, cfgC.Eval.InjectionRate, len(resC.Front), resC.Front[0].AvgLatency)
		r.Metrics["search16x16_best_latency"] = resC.Front[0].AvgLatency
	}
	r.Metrics["search16x16_evals"] = float64(resC.Evals)
	r.Metrics["search16x16_front_size"] = float64(len(resC.Front))

	// --- Part D: repeat part A, entirely from cache ---
	execs0 := runcache.Execs()
	resD, err := dse.SearchCtx(ctx, cfgA)
	if err != nil {
		return nil, err
	}
	repeatExecs := float64(runcache.Execs() - execs0)
	r.Printf("%s", repeatSentence(resD.Evals, repeatExecs))
	r.Metrics["repeat_search_evals"] = float64(resD.Evals)
	r.Metrics["repeat_search_executions"] = repeatExecs

	r.Printf("\nThe searched optima bound how much latency the paper's hand design leaves on the table (%.2f%% on the mixed 8x8 probe), while the search budget stays below %.0f%% of one exhaustive 4x4 sweep.\n",
		gap, evalsPct+1)
	return r, nil
}

// repeatSentence reports part D's repeat under its heading: with a warm
// run cache it runs no simulation; one that runs any had the cache off or
// cold.
func repeatSentence(evals int, execs float64) string {
	heading, verdict := "answered from cache", " — every probe answered by the run cache"
	if execs != 0 {
		heading, verdict = "simulated again", ", because the run cache was off or cold"
	}
	return fmt.Sprintf("### D. Repeatability: the same search %s\n\n"+
		"Re-running the part-A search from scratch (no frontier file, archive discarded) re-requested %d evaluations and ran %.0f simulations%s.\n",
		heading, evals, execs, verdict)
}

type signature struct{ corners, center int }

// diagonalSignature counts how many 8x8 grid corners and central cells
// {27, 28, 35, 36} a placement covers — the two features every strong
// mixed-probe placement shares with the paper's Diagonal X.
func diagonalSignature(big []int) signature {
	var s signature
	for _, b := range big {
		switch b {
		case 0, 7, 56, 63:
			s.corners++
		case 27, 28, 35, 36:
			s.center++
		}
	}
	return s
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
