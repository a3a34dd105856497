package dse

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/runcache"
)

// fastSearchConfig is a small 4x4 search that completes in well under a
// second per run while still exercising every search mechanism.
func fastSearchConfig() SearchConfig {
	return SearchConfig{
		Eval: EvalConfig{
			W: 4, H: 4, LinkRedist: true,
			InjectionRate: 0.05, Packets: 200, Seed: 3,
		},
		MinBig: 3, MaxBig: 5,
		PopSize:     8,
		Generations: 4,
		Seed:        17,
	}
}

// --- canonical symmetry on non-square meshes (regression) ---

// TestSymmetryNonSquareIsPermutation pins the 4x8 fix: only the 4-element
// subgroup {identity, 180°, x-mirror, y-mirror} applies when w != h, and
// each element must permute the grid (the old code applied square-only
// rotations, mapping cells out of the rectangle).
func TestSymmetryNonSquareIsPermutation(t *testing.T) {
	w, h := 4, 8
	if symmetryCount(w, h) != 4 {
		t.Fatalf("symmetryCount(%d,%d) = %d, want 4", w, h, symmetryCount(w, h))
	}
	if symmetryCount(4, 4) != 8 {
		t.Fatalf("symmetryCount(4,4) = %d, want 8", symmetryCount(4, 4))
	}
	for s := 0; s < 4; s++ {
		seen := map[[2]int]bool{}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				nx, ny := symmetry(s, x, y, w, h)
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					t.Fatalf("symmetry %d maps (%d,%d) outside the %dx%d grid: (%d,%d)", s, x, y, w, h, nx, ny)
				}
				if seen[[2]int{nx, ny}] {
					t.Fatalf("symmetry %d is not injective on %dx%d", s, w, h)
				}
				seen[[2]int{nx, ny}] = true
			}
		}
	}
}

// TestCanonicalNonSquareCollapsesOrbit checks that a 4x8 placement and each
// of its mirror/rotation images share one canonical representative.
func TestCanonicalNonSquareCollapsesOrbit(t *testing.T) {
	w, h := 4, 8
	set := []int{0, 5, 9, 14, 22, 30} // arbitrary asymmetric placement
	want := canonical(set, w, h)
	for s := 1; s < symmetryCount(w, h); s++ {
		img := make([]int, len(set))
		for i, cell := range set {
			x, y := cell%w, cell/w
			nx, ny := symmetry(s, x, y, w, h)
			img[i] = ny*w + nx
		}
		sort.Ints(img)
		if got := canonical(img, w, h); got != want {
			t.Errorf("transform %d image %v canonicalizes to %q, want %q", s, img, got, want)
		}
	}
}

// TestEnumerateNonSquareSymmetryCount cross-checks the 4x8 orbit count via
// Burnside's lemma for 1-element subsets: (32 + 0 + 0 + 0) / 4 = 8.
func TestEnumerateNonSquareSymmetryCount(t *testing.T) {
	reduced := Enumerate(4, 8, 1, true, func([]int) bool { return true })
	if reduced != 8 {
		t.Errorf("4x8 single-router orbits = %d, want 8", reduced)
	}
	// And without reduction, all 32 cells.
	full := Enumerate(4, 8, 1, false, func([]int) bool { return true })
	if full != 32 {
		t.Errorf("4x8 single-router placements = %d, want 32", full)
	}
}

// --- frontier file format ---

func testState() *searchState {
	return &searchState{
		Generation: 3,
		Evals:      41,
		RNGState:   0xdeadbeefcafef00d,
		Population: [][]int{{0, 5, 10, 15}, {1, 2, 4, 8}},
		Archive: []Candidate{
			{Big: []int{0, 5, 10, 15}, AvgLatency: 21.5, LatencyNS: 10.75, PowerW: 1.5, AreaMM2: 4.46},
			{Big: []int{1, 2, 4, 8}, AvgLatency: 23.0, LatencyNS: 11.5, PowerW: 1.6, AreaMM2: 4.46, Saturated: true},
		},
		Pareto: []int{0},
	}
}

func TestFrontierRoundTrip(t *testing.T) {
	st := testState()
	b := encodeFrontier("cfg-hash-1", st)
	got, err := decodeFrontier(b, "cfg-hash-1")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", st) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, st)
	}
}

func TestFrontierDetectsCorruption(t *testing.T) {
	b := encodeFrontier("cfg", testState())
	for _, pos := range []int{0, len(b) / 2, len(b) - 1} {
		mut := append([]byte(nil), b...)
		mut[pos] ^= 0x40
		if _, err := decodeFrontier(mut, "cfg"); err == nil {
			t.Errorf("flipped byte %d went undetected", pos)
		}
	}
	if _, err := decodeFrontier(b[:len(b)-3], "cfg"); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("truncation: got %v, want ckpt.ErrCorrupt", err)
	}
	if _, err := decodeFrontier(append(append([]byte(nil), b...), 0), "cfg"); err == nil {
		t.Error("trailing garbage went undetected")
	}
}

func TestFrontierRejectsConfigMismatch(t *testing.T) {
	b := encodeFrontier("search-A", testState())
	if _, err := decodeFrontier(b, "search-B"); !errors.Is(err, ErrFrontierConfig) {
		t.Errorf("got %v, want ErrFrontierConfig", err)
	}
}

func TestFrontierMissingFileIsFreshStart(t *testing.T) {
	st, err := loadFrontier(filepath.Join(t.TempDir(), "nope.hndse"), "cfg")
	if err != nil || st != nil {
		t.Errorf("missing file: got state %v err %v, want nil/nil", st, err)
	}
}

// --- search behaviour ---

// seqEvaluator scores the batch one candidate at a time in reverse order,
// standing in for "a different worker count / scheduling": results must
// still come back index-ordered, so the frontier must not change.
type seqEvaluator struct{}

func (seqEvaluator) EvaluateBatch(ctx context.Context, cfg EvalConfig, sets [][]int) ([]Candidate, error) {
	out := make([]Candidate, len(sets))
	for i := len(sets) - 1; i >= 0; i-- {
		c, err := EvaluateCtx(ctx, cfg, sets[i])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func frontString(front []Candidate) string {
	var s string
	for _, c := range front {
		s += fmt.Sprintf("%v|%.9f|%.9f|%.9f\n", c.Big, c.LatencyNS, c.PowerW, c.AreaMM2)
	}
	return s
}

// TestSearchFrontierIdenticalAcrossEvaluators pins the determinism
// contract: the frontier file is byte-identical whether candidates are
// scored by the parallel pool or strictly sequentially — evaluation
// order and worker count cannot leak into the archive.
func TestSearchFrontierIdenticalAcrossEvaluators(t *testing.T) {
	dir := t.TempDir()
	runParallel := fastSearchConfig()
	runParallel.FrontierPath = filepath.Join(dir, "par.hndse")
	runSeq := fastSearchConfig()
	runSeq.FrontierPath = filepath.Join(dir, "seq.hndse")
	runSeq.Evaluator = seqEvaluator{}

	a, err := Search(runParallel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(runSeq)
	if err != nil {
		t.Fatal(err)
	}
	if frontString(a.Front) != frontString(b.Front) {
		t.Fatalf("fronts differ:\n%s\nvs\n%s", frontString(a.Front), frontString(b.Front))
	}
	fa, err := os.ReadFile(runParallel.FrontierPath)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(runSeq.FrontierPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(fa) != string(fb) {
		t.Fatal("frontier files differ between parallel and sequential evaluation")
	}
}

// TestSearchResumeMatchesUninterrupted is the kill-and-resume gate: a
// search stopped at generation k and resumed to completion produces the
// identical final Pareto set — and the identical frontier bytes — as an
// uninterrupted control run.
func TestSearchResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()

	control := fastSearchConfig()
	control.FrontierPath = filepath.Join(dir, "control.hndse")
	want, err := Search(control)
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" after generation 2 by asking for only 2 generations...
	interrupted := fastSearchConfig()
	interrupted.Generations = 2
	interrupted.FrontierPath = filepath.Join(dir, "resumed.hndse")
	if _, err := Search(interrupted); err != nil {
		t.Fatal(err)
	}
	// ...then resume to the full horizon from the frontier file.
	interrupted.Generations = control.Generations
	got, err := Search(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resumed {
		t.Fatal("second run did not resume from the frontier file")
	}
	if got.Generations != want.Generations {
		t.Fatalf("resumed run completed %d generations, control %d", got.Generations, want.Generations)
	}
	if frontString(got.Front) != frontString(want.Front) {
		t.Fatalf("resumed front differs from control:\n%s\nvs\n%s",
			frontString(got.Front), frontString(want.Front))
	}
	fa, _ := os.ReadFile(control.FrontierPath)
	fb, _ := os.ReadFile(interrupted.FrontierPath)
	if len(fa) == 0 || string(fa) != string(fb) {
		t.Fatal("resumed frontier file differs from uninterrupted control")
	}
}

// TestSearchSecondRunAnswersFromCache pins the cross-layer dedup story:
// with the archive thrown away (no frontier), repeating a search re-requests
// every evaluation, but runcache answers all of them — zero simulations.
func TestSearchSecondRunAnswersFromCache(t *testing.T) {
	runcache.Reset()
	defer runcache.Reset()

	cfg := fastSearchConfig()
	first, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Evals == 0 {
		t.Fatal("degenerate search: no evaluations")
	}
	execsAfterFirst := runcache.Execs()
	if execsAfterFirst == 0 {
		t.Fatal("first search ran no simulations")
	}

	second, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := runcache.Execs() - execsAfterFirst; d != 0 {
		t.Fatalf("second identical search ran %d simulations, want 0 (all from cache)", d)
	}
	if frontString(first.Front) != frontString(second.Front) {
		t.Fatal("cached search produced a different front")
	}
}

// TestSearchRespectsEvalBudget stops at the first generation boundary at
// or past the budget.
func TestSearchRespectsEvalBudget(t *testing.T) {
	cfg := fastSearchConfig()
	cfg.Generations = 50
	cfg.EvalBudget = cfg.PopSize + 2 // initial population already near the cap
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One overshooting generation is allowed (the boundary check runs
	// before each breed), but not two.
	if res.Evals > cfg.EvalBudget+cfg.PopSize {
		t.Fatalf("%d evaluations blew the budget of %d", res.Evals, cfg.EvalBudget)
	}
	if res.Generations >= 50 {
		t.Fatal("budget did not stop the search")
	}
}

// TestSearchReportsAllSaturated drives the probe far past saturation so no
// placement is feasible; the search must say so rather than return an
// empty front silently (cmd/dse turns this into exit 1).
func TestSearchReportsAllSaturated(t *testing.T) {
	cfg := fastSearchConfig()
	cfg.Eval.InjectionRate = 0.9
	cfg.Eval.Packets = 120
	cfg.PopSize = 4
	cfg.Generations = 1
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) != 0 {
		t.Fatalf("expected empty front at rate 0.9, got %d points", len(res.Front))
	}
	if !res.AllSaturated {
		t.Fatal("AllSaturated not reported for a fully saturated space")
	}
}

// TestSearchArchiveGrowsAcrossResume extends a finished search: the resumed
// run reuses every archived evaluation and only pays for new placements.
func TestSearchArchiveGrowsAcrossResume(t *testing.T) {
	dir := t.TempDir()
	cfg := fastSearchConfig()
	cfg.Generations = 2
	cfg.FrontierPath = filepath.Join(dir, "extend.hndse")
	first, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Generations = 4
	second, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Resumed {
		t.Fatal("extension did not resume")
	}
	if second.ArchiveSize < first.ArchiveSize {
		t.Fatalf("archive shrank across resume: %d -> %d", first.ArchiveSize, second.ArchiveSize)
	}
	if second.Evals < first.Evals {
		t.Fatalf("cumulative evals went backwards: %d -> %d", first.Evals, second.Evals)
	}
}
