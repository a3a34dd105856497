// Command dse explores the big-router design space.
//
// Three modes:
//
//   - Default: the 4x4 exhaustive sweep of Section 2 (footnote 4) —
//     enumerate placements, score each with a short uniform-random probe,
//     report the best layouts and where the diagonal ranks.
//   - -anneal N: simulated annealing on the 8x8/16-big space.
//   - -search: the NSGA-II multi-objective search over {latency, power,
//     area} with a resumable frontier file (-frontier). Killed searches
//     resume exactly; finished searches extend when -generations grows.
//     With -server, candidate batches are POSTed to a nocserved instance
//     whose shared cache dedupes evaluations across concurrent searches.
//
// Usage:
//
//	dse [-big 4] [-max 100] [-packets 1500] [-rate 0.06] [-bl] [-workload hotspot]
//	dse -anneal 400
//	dse -search -w 8 -h 8 -minbig 12 -maxbig 16 -pop 24 -generations 20 \
//	    -budget 900 -frontier search.hndse [-server http://host:8080]
//
// Exit status: 0 on success; 1 on error, including the saturation case —
// if every evaluated placement saturates at the probe load, the search
// cannot rank anything and the command says so instead of printing an
// empty front.
package main

import (
	"flag"
	"fmt"
	"os"

	"heteronoc/internal/dse"
	"heteronoc/internal/runcache"
	"heteronoc/internal/serve"
)

func main() {
	bigCount := flag.Int("big", 4, "number of big routers (4x4 sweep: fixed; search: default for -minbig/-maxbig)")
	maxCand := flag.Int("max", 100, "maximum candidates to score (0 = all, symmetry-reduced)")
	packets := flag.Int("packets", 1500, "measured packets per probe")
	rate := flag.Float64("rate", 0.06, "probe injection rate")
	bl := flag.Bool("bl", true, "evaluate +BL (links redistributed) instead of +B")
	anneal := flag.Int("anneal", 0, "instead of the 4x4 sweep, run N simulated-annealing steps on the 8x8/16-big space")
	workload := flag.String("workload", "", "probe traffic shape: uniform (default), hotspot, mc-incast, or mixed")

	search := flag.Bool("search", false, "run the multi-objective evolutionary search instead of the exhaustive sweep")
	w := flag.Int("w", 4, "search: mesh width")
	h := flag.Int("h", 4, "search: mesh height")
	minBig := flag.Int("minbig", 0, "search: minimum big routers per candidate (default -big)")
	maxBig := flag.Int("maxbig", 0, "search: maximum big routers per candidate (default -big)")
	pop := flag.Int("pop", 24, "search: population size")
	generations := flag.Int("generations", 20, "search: generations to run (cumulative across resumes)")
	budget := flag.Int("budget", 0, "search: cap on cumulative candidate evaluations (0 = unlimited)")
	seed := flag.Int64("seed", 1, "search: RNG seed")
	frontier := flag.String("frontier", "", "search: frontier file (NOCCKPT01 kind dse-frontier) to persist/resume (empty = in-memory only)")
	server := flag.String("server", "", "search: nocserved base URL to evaluate batches remotely (empty = local)")
	cacheDir := flag.String("cachedir", "", "persistent run cache directory shared across processes")
	flag.Parse()

	if *cacheDir != "" {
		if err := runcache.SetDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *search {
		runSearch(searchOpts{
			w: *w, h: *h, minBig: *minBig, maxBig: *maxBig,
			big: *bigCount, pop: *pop, generations: *generations,
			budget: *budget, seed: *seed, frontier: *frontier,
			server: *server, bl: *bl, rate: *rate, packets: *packets,
			workload: *workload,
		})
		return
	}

	if *anneal > 0 {
		res, err := dse.Anneal(dse.AnnealConfig{
			Eval: dse.EvalConfig{
				W: 8, H: 8, BigCount: 16, LinkRedist: *bl,
				InjectionRate: *rate, Packets: *packets, Seed: 7,
				Workload: *workload,
			},
			Steps: *anneal,
			Seed:  11,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("8x8 anneal over %d steps (%d accepted)\n", res.Steps, res.Accepted)
		fmt.Printf("random start: %.1f cycles\n", res.Initial.AvgLatency)
		fmt.Printf("best found:   %.1f cycles at %v\n", res.Best.AvgLatency, res.Best.Big)
		return
	}

	fmt.Printf("placements of %d big routers on 4x4: %s total (paper footnote 4)\n",
		*bigCount, dse.Combinations(16, *bigCount))
	res, err := dse.Explore(dse.EvalConfig{
		W: 4, H: 4,
		BigCount:       *bigCount,
		LinkRedist:     *bl,
		InjectionRate:  *rate,
		Packets:        *packets,
		ReduceSymmetry: true,
		MaxCandidates:  *maxCand,
		Seed:           7,
		Workload:       *workload,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if allSaturated(res) {
		fmt.Fprintf(os.Stderr, "dse: every one of the %d scored placements saturated at rate %.3f — "+
			"the probe load exceeds what any placement can carry; lower -rate\n", len(res), *rate)
		os.Exit(1)
	}
	fmt.Printf("scored %d symmetry-reduced candidates at rate %.3f\n\n", len(res), *rate)
	show := 10
	if len(res) < show {
		show = len(res)
	}
	fmt.Println("rank  avg-latency  saturated  big routers")
	for i := 0; i < show; i++ {
		c := res[i]
		fmt.Printf("%4d  %9.1f    %-9v %v\n", i+1, c.AvgLatency, c.Saturated, c.Big)
	}
	if rank, ok := dse.DiagonalScore(res, 4, 4); ok {
		fmt.Printf("\ndiagonal placement ranks #%d of %d\n", rank, len(res))
	}
}

func allSaturated(cands []dse.Candidate) bool {
	for _, c := range cands {
		if !c.Saturated {
			return false
		}
	}
	return len(cands) > 0
}

type searchOpts struct {
	w, h, minBig, maxBig, big, pop, generations, budget int
	seed                                                int64
	frontier, server, workload                          string
	bl                                                  bool
	rate                                                float64
	packets                                             int
}

func runSearch(o searchOpts) {
	if o.minBig == 0 {
		o.minBig = o.big
	}
	if o.maxBig == 0 {
		o.maxBig = o.big
	}
	cfg := dse.SearchConfig{
		Eval: dse.EvalConfig{
			W: o.w, H: o.h, LinkRedist: o.bl,
			InjectionRate: o.rate, Packets: o.packets, Seed: 7,
			Workload: o.workload,
		},
		MinBig: o.minBig, MaxBig: o.maxBig,
		PopSize: o.pop, Generations: o.generations, EvalBudget: o.budget,
		Seed:         o.seed,
		FrontierPath: o.frontier,
	}
	var remote *serve.RemoteEvaluator
	if o.server != "" {
		remote = &serve.RemoteEvaluator{
			Client: &serve.Client{BaseURL: o.server},
			Tenant: fmt.Sprintf("dse-seed%d", o.seed),
		}
		cfg.Evaluator = remote
	}

	execs0 := runcache.Execs()
	res, err := dse.Search(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if res.AllSaturated {
		fmt.Fprintf(os.Stderr, "dse: search found no feasible point — all %d evaluated placements "+
			"saturated at rate %.3f; the probe load exceeds what any placement in this space can "+
			"carry, so the Pareto front is empty. Lower -rate and rerun.\n", res.ArchiveSize, o.rate)
		os.Exit(1)
	}

	mode := "local"
	if remote != nil {
		mode = fmt.Sprintf("remote via %s (%d batches, %d answered warm)",
			o.server, remote.Batches.Load(), remote.WarmBatches.Load())
	}
	resumed := ""
	if res.Resumed {
		resumed = " (resumed)"
	}
	fmt.Printf("%dx%d search%s: %d generations, %d evaluations (%d archive hits), archive %d, evaluation %s\n",
		o.w, o.h, resumed, res.Generations, res.Evals, res.ArchiveHits, res.ArchiveSize, mode)
	if remote == nil {
		fmt.Printf("simulations this process: %d (rest served by cache/archive)\n", runcache.Execs()-execs0)
	}
	fmt.Printf("\nPareto front (%d points, latency-ascending):\n", len(res.Front))
	fmt.Println("   latency-ns   power-w   area-mm2  big routers")
	show := len(res.Front)
	if show > 12 {
		show = 12
	}
	for i := 0; i < show; i++ {
		c := res.Front[i]
		fmt.Printf("  %10.3f  %8.3f  %8.3f  %v\n", c.LatencyNS, c.PowerW, c.AreaMM2, c.Big)
	}
	if show < len(res.Front) {
		fmt.Printf("  ... %d more\n", len(res.Front)-show)
	}
	if o.frontier != "" {
		fmt.Printf("\nfrontier saved to %s — rerun with a larger -generations to extend\n", o.frontier)
	}
}
