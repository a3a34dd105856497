// Package dse implements the design-space exploration of Section 2
// (footnote 4): exhaustive enumeration of big-router placements on a small
// mesh, symmetry reduction, and short-simulation scoring, which is how the
// paper selected the six 8x8 layouts from thousands of 4x4 candidates.
package dse

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"heteronoc/internal/core"
	"heteronoc/internal/par"
	"heteronoc/internal/power"
	"heteronoc/internal/runcache"
	"heteronoc/internal/traffic"
)

// Candidate is one placement with its evaluation under the probe load.
// Latency is the primary objective the paper's footnote-4 sweep scored;
// the search adds the network-power and router-area objectives so the
// frontier trades performance against the paper's Table 2 budgets.
type Candidate struct {
	Big        []int
	AvgLatency float64 // cycles at the probe load
	LatencyNS  float64 // AvgLatency at the layout's network clock
	PowerW     float64 // Orion-model network power at the probe activity
	AreaMM2    float64 // total router area from the Table 2 synthesis numbers
	Saturated  bool
}

// Objectives returns the minimization vector {latency ns, power W, area mm²}.
func (c Candidate) Objectives() [3]float64 {
	return [3]float64{c.LatencyNS, c.PowerW, c.AreaMM2}
}

// Combinations returns C(n, k) — the paper quotes 1820, 8008 and 12870
// candidate counts for (4,12), (6,10) and (8,8) splits on a 4x4 mesh.
func Combinations(n, k int) *big.Int {
	return new(big.Int).Binomial(int64(n), int64(k))
}

// canonical returns the lexicographically smallest representation of a
// placement under the mesh symmetries (see canonicalSet), used to prune
// equivalent layouts.
func canonical(big []int, w, h int) string {
	return fmt.Sprint(canonicalSet(big, w, h))
}

// canonicalSet returns the symmetry-orbit representative of a placement:
// the lexicographically smallest image of the set under every valid mesh
// symmetry, as a sorted router-index slice. The search evaluates this
// representative, so any two equivalent placements share one probe.
func canonicalSet(big []int, w, h int) []int {
	var best []int
	bestKey := ""
	for s := 0; s < symmetryCount(w, h); s++ {
		mapped := make([]int, len(big))
		for i, r := range big {
			x, y := r%w, r/w
			nx, ny := symmetry(s, x, y, w, h)
			mapped[i] = ny*w + nx
		}
		sort.Ints(mapped)
		key := fmt.Sprint(mapped)
		if bestKey == "" || key < bestKey {
			bestKey, best = key, mapped
		}
	}
	return best
}

// symmetryCount is the order of the mesh's symmetry group: the full
// 8-element dihedral group for squares, but only the 4-element subgroup
// {identity, 180°, horizontal mirror, vertical mirror} for rectangles —
// a 90° rotation of a w≠h grid is not a self-map.
func symmetryCount(w, h int) int {
	if w == h {
		return 8
	}
	return 4
}

// symmetry applies the s-th valid transform to a grid coordinate. For
// square meshes s ∈ [0,8): rotate s%4 quarter turns, then mirror for
// s >= 4. For rectangular meshes s ∈ [0,4): identity, 180° rotation and
// the two axis mirrors, the only transforms that keep the grid's shape.
func symmetry(s, x, y, w, h int) (int, int) {
	if w == h {
		for i := 0; i < s%4; i++ { // rotate s%4 times by 90 degrees
			x, y = w-1-y, x
		}
		if s >= 4 { // then mirror
			x = w - 1 - x
		}
		return x, y
	}
	switch s % 4 {
	case 1: // 180° rotation
		x, y = w-1-x, h-1-y
	case 2: // horizontal mirror
		x = w - 1 - x
	case 3: // vertical mirror
		y = h - 1 - y
	}
	return x, y
}

// Enumerate yields every placement of k big routers on a W x H mesh,
// reduced by square symmetry when reduceSymmetry is set. The callback
// receives the big-router set; enumeration stops early if it returns false.
func Enumerate(w, h, k int, reduceSymmetry bool, fn func(big []int) bool) int {
	n := w * h
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	seen := map[string]bool{}
	count := 0
	for {
		if reduceSymmetry {
			key := canonical(idx, w, h)
			if !seen[key] {
				seen[key] = true
				count++
				cp := append([]int(nil), idx...)
				if !fn(cp) {
					return count
				}
			}
		} else {
			count++
			cp := append([]int(nil), idx...)
			if !fn(cp) {
				return count
			}
		}
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return count
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// EvalConfig controls the scoring simulation.
type EvalConfig struct {
	W, H int
	// BigCount big routers per layout.
	BigCount int
	// LinkRedist evaluates +BL (true) or +B (false) designs.
	LinkRedist bool
	// InjectionRate is the probe load in packets/node/cycle.
	InjectionRate float64
	// Packets to measure per candidate (short probes; the paper ran
	// thousands of these).
	Packets int
	// MaxCandidates bounds the sweep (0 = all).
	MaxCandidates int
	Seed          int64
	// Workload selects the probe's traffic shape: "" or "uniform" for the
	// default uniform-random probe, "hotspot" for center-hotspot traffic,
	// "mc-incast" for corner incast — so the search can optimize a
	// placement for the adversarial classes, not just UR. "mixed" scores
	// the mean of a uniform probe at InjectionRate plus hotspot and
	// mc-incast probes at 0.3 times that rate, mirroring how the paper
	// judges layouts across its uniform, hotspot and memory-traffic
	// classes: a placement has to serve the bulk load, the hot center and
	// the converging MC traffic at once.
	Workload string
}

// probePattern maps the Workload knob to a traffic pattern.
func probePattern(cfg EvalConfig) (traffic.Pattern, error) {
	n := cfg.W * cfg.H
	switch cfg.Workload {
	case "", "uniform":
		return traffic.UniformRandom{N: n}, nil
	case "hotspot":
		// Hot terminal at the mesh center, 30% converging traffic.
		return traffic.Hotspot{N: n, Hot: n/2 + cfg.W/2, Frac: 0.3}, nil
	case "mc-incast":
		// Traffic converges on the corner terminals where the default
		// memory placement puts its controllers.
		return traffic.Incast{N: n, Sinks: []int{0, cfg.W - 1, n - cfg.W, n - 1}, Frac: 0.6}, nil
	default:
		return nil, fmt.Errorf("dse: unknown probe workload %q", cfg.Workload)
	}
}

// Explore scores the symmetry-reduced placements and returns them sorted
// best first. The enumeration order is deterministic, so the candidate
// list is fixed before any simulation runs; the probe simulations are then
// independent (fixed-seed, one network each) and fan out on the par worker
// pool without affecting any score.
func Explore(cfg EvalConfig) ([]Candidate, error) {
	return ExploreCtx(context.Background(), cfg)
}

// ExploreCtx is Explore with cooperative cancellation, observed between
// candidate probes (dispatch stops) and inside each probe's step loop.
func ExploreCtx(ctx context.Context, cfg EvalConfig) ([]Candidate, error) {
	var sets [][]int
	Enumerate(cfg.W, cfg.H, cfg.BigCount, true, func(big []int) bool {
		sets = append(sets, big)
		return cfg.MaxCandidates == 0 || len(sets) < cfg.MaxCandidates
	})
	out, err := par.MapCtx(ctx, len(sets), func(ctx context.Context, i int) (Candidate, error) {
		return EvaluateCtx(ctx, cfg, sets[i])
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Saturated != out[j].Saturated {
			return !out[i].Saturated
		}
		return out[i].AvgLatency < out[j].AvgLatency
	})
	return out, nil
}

// EvaluateCtx scores a single placement with a short probe (uniform
// random unless cfg names another workload). Probes are deterministic
// (fixed seed, fixed configuration), so scores are memoized in runcache: a
// search revisiting a placement, or an Explore re-run in the same process,
// reuses the first probe. The probe's step loop observes ctx at
// cycle-batch granularity.
func EvaluateCtx(ctx context.Context, cfg EvalConfig, bigSet []int) (Candidate, error) {
	if cfg.Workload == "mixed" {
		return evaluateMixed(ctx, cfg, bigSet)
	}
	// dse2: the candidate gained power/area objectives, so v1 disk entries
	// (which would gob-decode with those fields zero) must miss.
	key := fmt.Sprintf("dse2|%dx%d|big=%v|bl=%t|r=%g|p=%d|seed=%d",
		cfg.W, cfg.H, bigSet, cfg.LinkRedist, cfg.InjectionRate, cfg.Packets, cfg.Seed)
	if cfg.Workload != "" && cfg.Workload != "uniform" {
		// Appended only when set, so default-probe keys (and their disk
		// cache) stay stable across this addition.
		key += "|wl=" + cfg.Workload
	}
	return runcache.ForCtx(ctx, key, func(ctx context.Context) (Candidate, error) {
		return evaluateUncached(ctx, cfg, bigSet)
	})
}

// evaluateMixed scores a placement as the mean of a uniform-random probe
// and cooler hotspot and mc-incast probes — a layout must serve the bulk
// load, the hot center and the converging memory traffic at once, which is
// exactly the triple duty the paper's diagonal placements are designed
// for. Each component probe is cached under its own key, so a mixed
// search shares probes with pure-workload searches and re-runs cost zero
// simulation.
func evaluateMixed(ctx context.Context, cfg EvalConfig, bigSet []int) (Candidate, error) {
	// Both adversarial patterns saturate far earlier than UR, so they run
	// at this fraction of InjectionRate.
	const mixedAdversarialFrac = 0.3
	parts := make([]Candidate, 3)
	for i, wl := range []string{"uniform", "hotspot", "mc-incast"} {
		sub := cfg
		sub.Workload = wl
		if wl != "uniform" {
			sub.InjectionRate = cfg.InjectionRate * mixedAdversarialFrac
		}
		c, err := EvaluateCtx(ctx, sub, bigSet)
		if err != nil {
			return Candidate{}, err
		}
		parts[i] = c
	}
	out := Candidate{Big: bigSet, AreaMM2: parts[0].AreaMM2}
	for _, p := range parts {
		out.AvgLatency += p.AvgLatency / 3
		out.LatencyNS += p.LatencyNS / 3
		out.PowerW += p.PowerW / 3
		out.Saturated = out.Saturated || p.Saturated
	}
	return out, nil
}

func evaluateUncached(ctx context.Context, cfg EvalConfig, bigSet []int) (Candidate, error) {
	layout := core.NewCustom(fmt.Sprintf("dse%v", bigSet), cfg.W, cfg.H, bigSet, cfg.LinkRedist)
	net, err := layout.Network()
	if err != nil {
		return Candidate{}, err
	}
	pat, err := probePattern(cfg)
	if err != nil {
		return Candidate{}, err
	}
	res, err := traffic.RunCtx(ctx, net, traffic.RunConfig{
		Pattern:        pat,
		Process:        traffic.Bernoulli{P: cfg.InjectionRate},
		DataFlits:      layout.DataPacketFlits(),
		WarmupPackets:  cfg.Packets / 10,
		MeasurePackets: cfg.Packets,
		Seed:           cfg.Seed,
		MaxCycles:      int64(cfg.Packets) * 100,
	})
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{
		Big:        bigSet,
		AvgLatency: res.AvgLatency,
		LatencyNS:  res.AvgLatency / layout.FreqGHz(),
		PowerW:     power.Network(power.NewModel(), layout, res.Activity).Total(),
		AreaMM2:    power.Area(layout),
		Saturated:  res.Saturated,
	}, nil
}

// DiagonalScore reports where the diagonal placement ranks within a result
// set (1 = best); used to confirm the paper's conclusion that diagonal
// placements score near the top.
func DiagonalScore(results []Candidate, w, h int) (rank int, found bool) {
	diag := map[int]bool{}
	for _, r := range core.BigRouters(core.PlacementDiagonal, w, h) {
		diag[r] = true
	}
	for i, c := range results {
		if len(c.Big) != len(diag) {
			continue
		}
		all := true
		for _, b := range c.Big {
			if !diag[b] {
				all = false
				break
			}
		}
		if all {
			return i + 1, true
		}
	}
	return 0, false
}
