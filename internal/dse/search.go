package dse

import (
	"context"
	"fmt"
	"sort"

	"heteronoc/internal/par"
)

// Search runs an NSGA-II-style multi-objective evolutionary search over
// big-router placements, minimizing {probe latency, network power, router
// area} under an area budget. Evaluation is deduplicated at three layers:
// canonical-symmetry keys collapse equivalent placements before any probe
// runs, a persistent archive (carried in the frontier file) answers every
// placement this search — or a resumed ancestor — already scored, and
// runcache memoizes each probe by its full recipe so concurrent searches
// and re-runs share simulations across processes via the disk tier.

// Evaluator scores a batch of canonical placements. LocalEvaluator fans
// out on the par worker pool; serve's remote evaluator POSTs the batch to
// a nocserved worker whose shared cache dedupes across searches.
type Evaluator interface {
	EvaluateBatch(ctx context.Context, cfg EvalConfig, sets [][]int) ([]Candidate, error)
}

// LocalEvaluator evaluates probes in-process on the par worker pool.
// Results are index-ordered, so the archive order — and therefore the
// frontier file — is byte-identical regardless of worker count.
type LocalEvaluator struct{}

// EvaluateBatch implements Evaluator.
func (LocalEvaluator) EvaluateBatch(ctx context.Context, cfg EvalConfig, sets [][]int) ([]Candidate, error) {
	return par.MapCtx(ctx, len(sets), func(ctx context.Context, i int) (Candidate, error) {
		return EvaluateCtx(ctx, cfg, sets[i])
	})
}

// SearchConfig controls the evolutionary search.
type SearchConfig struct {
	// Eval fixes the probe recipe (mesh size, load, packets, workload).
	// Eval.BigCount is ignored; the genome size ranges over [MinBig, MaxBig].
	Eval EvalConfig
	// MinBig / MaxBig bound the number of big routers per candidate. Both
	// default to Eval.BigCount when zero.
	MinBig, MaxBig int
	// PopSize is the population per generation (default 24).
	PopSize int
	// Generations to run (default 20). Resuming with a larger value
	// extends the search; every archived evaluation is reused.
	Generations int
	// EvalBudget caps cumulative probe requests (archive misses) across
	// the search and its resumes; 0 = unlimited. The search stops at the
	// first generation boundary at or past the budget.
	EvalBudget int
	// AreaBudget in mm² for the feasibility constraint. 0 derives the
	// budget from a MaxBig-big-router mesh, i.e. "no more silicon than the
	// largest allowed placement".
	AreaBudget float64
	// Seed drives the search RNG (selection, crossover, mutation). The
	// probe seed lives in Eval.Seed.
	Seed int64
	// FrontierPath persists the search as a frontier file (see
	// frontier.go) after every generation; if the file exists the search
	// resumes from it.
	FrontierPath string
	// Evaluator scores candidate batches (default LocalEvaluator).
	Evaluator Evaluator
}

// SearchResult reports the outcome.
type SearchResult struct {
	// Front is the feasible non-dominated set over the whole archive,
	// sorted by ascending latency. Front[0] is the latency-optimal point
	// under the area budget.
	Front []Candidate
	// Generations completed (cumulative across resumes).
	Generations int
	// Evals is the cumulative number of probe requests (archive misses);
	// the <10%-of-exhaustive acceptance number. Probes answered by
	// runcache still count here — runcache.Execs measures simulations.
	Evals int
	// ArchiveSize is the number of distinct canonical placements scored.
	ArchiveSize int
	// ArchiveHits counts candidates this run answered from the archive.
	ArchiveHits int
	// Resumed reports whether the search continued a frontier file.
	Resumed bool
	// AllSaturated means every evaluated placement saturated at the probe
	// load: the probe is too hot for the whole space and the front is
	// empty (cmd/dse turns this into a nonzero exit).
	AllSaturated bool
}

// normalized fills defaults; configString depends on the result, so the
// frontier hash is stable whether or not callers spelled defaults out.
func (cfg SearchConfig) normalized() SearchConfig {
	if cfg.MinBig == 0 {
		cfg.MinBig = cfg.Eval.BigCount
	}
	if cfg.MaxBig == 0 {
		cfg.MaxBig = cfg.Eval.BigCount
	}
	if cfg.MaxBig < cfg.MinBig {
		cfg.MaxBig = cfg.MinBig
	}
	if cfg.PopSize <= 0 {
		cfg.PopSize = 24
	}
	if cfg.Generations <= 0 {
		cfg.Generations = 20
	}
	if cfg.AreaBudget == 0 {
		n := cfg.Eval.W * cfg.Eval.H
		cfg.AreaBudget = areaOf(cfg.MaxBig, n)
	}
	if cfg.Evaluator == nil {
		cfg.Evaluator = LocalEvaluator{}
	}
	return cfg
}

// areaOf is the router area of a custom placement with k big and n-k small
// routers, matching power.Area on core.NewCustom layouts.
func areaOf(k, n int) float64 {
	const smallArea, bigArea = 0.235, 0.425 // core.Specs() Table 2 numbers
	return float64(k)*bigArea + float64(n-k)*smallArea
}

// configString is the canonical identity of a search for the frontier
// file. Generations, EvalBudget, FrontierPath and the evaluator are
// excluded on purpose: extending a search or moving it between local and
// remote evaluation must resume, not restart.
func (cfg SearchConfig) configString() string {
	e := cfg.Eval
	wl := e.Workload
	if wl == "" {
		wl = "uniform"
	}
	s := fmt.Sprintf("dse-search|v1|%dx%d|bl=%t|r=%g|p=%d|probeseed=%d|wl=%s|big=%d..%d|pop=%d|seed=%d|area=%.6f",
		e.W, e.H, e.LinkRedist, e.InjectionRate, e.Packets, e.Seed, wl,
		cfg.MinBig, cfg.MaxBig, cfg.PopSize, cfg.Seed, cfg.AreaBudget)
	if e.Workload == "mixed" && e.MixedAdversarialFrac > 0 {
		s += fmt.Sprintf("|mf=%g", e.MixedAdversarialFrac)
	}
	if e.Bench != "" {
		s += fmt.Sprintf("|bench=%s|cyc=%d|warm=%d", e.Bench, e.CMPCycles, e.WarmupEntries)
	}
	return s
}

// Search runs the search to completion (see SearchCtx).
func Search(cfg SearchConfig) (SearchResult, error) {
	return SearchCtx(context.Background(), cfg)
}

// SearchCtx runs the search with cooperative cancellation. The frontier
// file (when configured) is saved after every completed generation, so a
// cancelled or killed search loses at most the generation in flight — and
// even that generation's probes sit in runcache for the resume.
func SearchCtx(ctx context.Context, cfg SearchConfig) (SearchResult, error) {
	cfg = cfg.normalized()
	if cfg.Eval.W <= 0 || cfg.Eval.H <= 0 {
		return SearchResult{}, fmt.Errorf("dse: search needs positive mesh dims, got %dx%d", cfg.Eval.W, cfg.Eval.H)
	}
	n := cfg.Eval.W * cfg.Eval.H
	if cfg.MinBig < 1 || cfg.MaxBig >= n {
		return SearchResult{}, fmt.Errorf("dse: big-router bounds %d..%d invalid for %d routers", cfg.MinBig, cfg.MaxBig, n)
	}
	hash := cfg.configString()

	s := &searcher{cfg: cfg, n: n, index: map[string]int{}}
	var res SearchResult
	if cfg.FrontierPath != "" {
		st, err := loadFrontier(cfg.FrontierPath, hash)
		if err != nil {
			return SearchResult{}, err
		}
		if st != nil {
			s.restore(st)
			res.Resumed = true
		}
	}
	r := &rng{}
	if s.gen == 0 && len(s.pop) == 0 {
		r = newRNG(cfg.Seed)
		s.pop = s.initialPopulation(r)
	} else {
		r.setState(s.rngState)
	}
	if err := s.ensureEvaluated(ctx, s.pop); err != nil {
		return SearchResult{}, err
	}
	save := func() error {
		if cfg.FrontierPath == "" {
			return nil
		}
		s.rngState = r.state()
		return saveFrontier(cfg.FrontierPath, hash, s.state())
	}
	if err := save(); err != nil {
		return SearchResult{}, err
	}

	for s.gen < cfg.Generations {
		if err := ctx.Err(); err != nil {
			return SearchResult{}, err
		}
		if cfg.EvalBudget > 0 && s.evals >= cfg.EvalBudget {
			break
		}
		offspring := s.breed(r)
		if err := s.ensureEvaluated(ctx, offspring); err != nil {
			return SearchResult{}, err
		}
		s.pop = s.environmentalSelection(append(s.pop, offspring...))
		s.gen++
		if err := save(); err != nil {
			return SearchResult{}, err
		}
	}

	res.Generations = s.gen
	res.Evals = s.evals
	res.ArchiveSize = len(s.archive)
	res.ArchiveHits = s.hits
	front := paretoFront(s.archive, cfg.AreaBudget)
	for _, i := range front {
		res.Front = append(res.Front, s.archive[i])
	}
	res.AllSaturated = len(s.archive) > 0 && len(res.Front) == 0 && allSaturated(s.archive)
	return res, nil
}

func allSaturated(cands []Candidate) bool {
	for _, c := range cands {
		if !c.Saturated {
			return false
		}
	}
	return true
}

// searcher holds the loop state; pop members are canonical sorted sets.
type searcher struct {
	cfg      SearchConfig
	n        int
	pop      [][]int
	archive  []Candidate    // evaluation order (the frontier file order)
	index    map[string]int // canonical key -> archive index
	gen      int
	evals    int
	hits     int
	rngState uint64
}

func (s *searcher) restore(st *searchState) {
	s.gen = st.Generation
	s.evals = st.Evals
	s.rngState = st.RNGState
	s.pop = st.Population
	s.archive = st.Archive
	for i, c := range s.archive {
		s.index[fmt.Sprint(c.Big)] = i
	}
}

func (s *searcher) state() *searchState {
	return &searchState{
		Generation: s.gen,
		Evals:      s.evals,
		RNGState:   s.rngState,
		Population: s.pop,
		Archive:    s.archive,
		Pareto:     paretoFront(s.archive, s.cfg.AreaBudget),
	}
}

// initialPopulation draws random canonical placements with sizes spread
// across [MinBig, MaxBig].
func (s *searcher) initialPopulation(r *rng) [][]int {
	var pop [][]int
	for i := 0; i < s.cfg.PopSize; i++ {
		k := s.cfg.MinBig + r.Intn(s.cfg.MaxBig-s.cfg.MinBig+1)
		perm := r.perm(s.n)
		set := append([]int(nil), perm[:k]...)
		sort.Ints(set)
		pop = append(pop, canonicalSet(set, s.cfg.Eval.W, s.cfg.Eval.H))
	}
	return pop
}

// ensureEvaluated scores every set not yet in the archive, appending
// results in the deterministic batch order. Duplicate keys within the
// batch collapse to one probe.
func (s *searcher) ensureEvaluated(ctx context.Context, sets [][]int) error {
	var toEval [][]int
	seen := map[string]bool{}
	for _, set := range sets {
		key := fmt.Sprint(set)
		if _, ok := s.index[key]; ok {
			s.hits++
			continue
		}
		if seen[key] {
			s.hits++
			continue
		}
		seen[key] = true
		toEval = append(toEval, set)
	}
	if len(toEval) == 0 {
		return nil
	}
	cands, err := s.cfg.Evaluator.EvaluateBatch(ctx, s.cfg.Eval, toEval)
	if err != nil {
		return err
	}
	if len(cands) != len(toEval) {
		return fmt.Errorf("dse: evaluator returned %d candidates for %d sets", len(cands), len(toEval))
	}
	for i, c := range cands {
		c.Big = toEval[i] // keep the canonical set, whatever the evaluator echoed
		s.index[fmt.Sprint(c.Big)] = len(s.archive)
		s.archive = append(s.archive, c)
	}
	s.evals += len(toEval)
	return nil
}

func (s *searcher) candidates(sets [][]int) []Candidate {
	out := make([]Candidate, len(sets))
	for i, set := range sets {
		out[i] = s.archive[s.index[fmt.Sprint(set)]]
	}
	return out
}

// breed produces PopSize offspring by binary tournament on (rank,
// crowding), set-union crossover and placement mutations.
func (s *searcher) breed(r *rng) [][]int {
	pop := s.candidates(s.pop)
	fronts := nonDominatedSort(pop, s.cfg.AreaBudget)
	rank := make([]int, len(pop))
	crowd := make([]float64, len(pop))
	for fi, f := range fronts {
		d := crowdingDistance(pop, f)
		for k, i := range f {
			rank[i] = fi
			crowd[i] = d[k]
		}
	}
	tournament := func() int {
		a, b := r.Intn(len(pop)), r.Intn(len(pop))
		if rank[a] != rank[b] {
			if rank[a] < rank[b] {
				return a
			}
			return b
		}
		if crowd[a] > crowd[b] {
			return a
		}
		return b
	}
	var off [][]int
	for len(off) < s.cfg.PopSize {
		p1, p2 := s.pop[tournament()], s.pop[tournament()]
		child := s.crossover(r, p1, p2)
		child = s.mutate(r, child)
		off = append(off, canonicalSet(child, s.cfg.Eval.W, s.cfg.Eval.H))
	}
	return off
}

// crossover samples the child from the union of both parents, with a size
// drawn between the parents' sizes — placements inherit the cells their
// parents agreed on more often than either parent's extras.
func (s *searcher) crossover(r *rng, p1, p2 []int) []int {
	if r.Float64() < 0.1 { // occasional clone keeps good parents intact
		return append([]int(nil), p1...)
	}
	union := unionSets(p1, p2)
	lo, hi := len(p1), len(p2)
	if lo > hi {
		lo, hi = hi, lo
	}
	k := lo + r.Intn(hi-lo+1)
	if k > len(union) {
		k = len(union)
	}
	perm := r.perm(len(union))
	child := make([]int, 0, k)
	for _, i := range perm[:k] {
		child = append(child, union[i])
	}
	sort.Ints(child)
	return child
}

// mutate applies one of four moves: teleport a big router, slide one to a
// mesh neighbour, resize within [MinBig, MaxBig], or symmetrize — pull the
// placement toward one of its own mirror images, which is what steers the
// search into the symmetric basins the paper's diagonal layouts occupy.
func (s *searcher) mutate(r *rng, set []int) []int {
	if len(set) == 0 {
		return set
	}
	w, h := s.cfg.Eval.W, s.cfg.Eval.H
	out := append([]int(nil), set...)
	switch r.Intn(5) {
	case 0: // teleport one router to a random free cell
		i := r.Intn(len(out))
		if free, ok := s.randomFree(r, out); ok {
			out[i] = free
		}
	case 1: // slide one router to a random free neighbour
		i := r.Intn(len(out))
		x, y := out[i]%w, out[i]/w
		dirs := [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
		d := dirs[r.Intn(4)]
		nx, ny := x+d[0], y+d[1]
		if nx >= 0 && nx < w && ny >= 0 && ny < h {
			cand := ny*w + nx
			if !contains(out, cand) {
				out[i] = cand
			}
		}
	case 2: // resize: add or drop one big router within bounds
		if r.Intn(2) == 0 && len(out) < s.cfg.MaxBig {
			if free, ok := s.randomFree(r, out); ok {
				out = append(out, free)
			}
		} else if len(out) > s.cfg.MinBig {
			i := r.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		}
	case 3: // symmetrize: resample from set ∪ mirror(set)
		t := 1 + r.Intn(symmetryCount(w, h)-1)
		mirrored := make([]int, len(out))
		for i, cell := range out {
			x, y := cell%w, cell/w
			nx, ny := symmetry(t, x, y, w, h)
			mirrored[i] = ny*w + nx
		}
		sort.Ints(mirrored)
		union := unionSets(out, mirrored)
		k := len(out)
		perm := r.perm(len(union))
		out = out[:0]
		for _, i := range perm[:k] {
			out = append(out, union[i])
		}
	case 4: // no-op: pure crossover child
	}
	sort.Ints(out)
	return out
}

// randomFree picks a uniformly random cell outside set.
func (s *searcher) randomFree(r *rng, set []int) (int, bool) {
	if len(set) >= s.n {
		return 0, false
	}
	// Draw the free cell by its rank among free cells — one rng draw, no
	// rejection loop, so the draw count stays deterministic.
	rank := r.Intn(s.n - len(set))
	inSet := make(map[int]bool, len(set))
	for _, v := range set {
		inSet[v] = true
	}
	for cell := 0; cell < s.n; cell++ {
		if inSet[cell] {
			continue
		}
		if rank == 0 {
			return cell, true
		}
		rank--
	}
	return 0, false
}

// environmentalSelection dedupes the combined parent+offspring pool by
// canonical key and keeps the PopSize best by rank then crowding.
func (s *searcher) environmentalSelection(pool [][]int) [][]int {
	var unique [][]int
	seen := map[string]bool{}
	for _, set := range pool {
		key := fmt.Sprint(set)
		if !seen[key] {
			seen[key] = true
			unique = append(unique, set)
		}
	}
	cands := s.candidates(unique)
	keep := selectNSGA(cands, s.cfg.AreaBudget, s.cfg.PopSize)
	next := make([][]int, 0, len(keep))
	for _, i := range keep {
		next = append(next, unique[i])
	}
	return next
}

func unionSets(a, b []int) []int {
	seen := map[int]bool{}
	var u []int
	for _, v := range a {
		if !seen[v] {
			seen[v] = true
			u = append(u, v)
		}
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			u = append(u, v)
		}
	}
	sort.Ints(u)
	return u
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
