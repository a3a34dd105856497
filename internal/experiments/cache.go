package experiments

import (
	"fmt"

	"heteronoc/internal/cmp/mem"
	"heteronoc/internal/core"
	"heteronoc/internal/traffic"
)

// This file builds the content-addressed keys under which completed CMP
// runs are memoized in runcache; network runs are keyed by netRecipe.key
// (network.go). A key must capture every input that influences the run's
// outcome: for a CMP run, the layout's full spec (placement, link widths,
// torus), the workload, the memory-controller placement, the prefetcher
// and the simulation budget. Scale.Name is included defensively — it is
// what lets bench_test defeat the cache per iteration — but the numeric
// budget fields are the real content. A key names inputs, not code: a
// change that moves any simulated result must bump runcache's
// diskVersion, or the disk tier keeps serving the old result.

// layoutKey canonicalizes a layout through its JSON spec (name, dims,
// torus flag, big-router set, link redistribution).
func layoutKey(l core.Layout) string {
	data, err := core.LayoutJSON(l)
	if err != nil {
		// Un-serializable layouts are still keyable by their printed form.
		return fmt.Sprintf("layout!%+v", l)
	}
	return string(data)
}

// patternKey canonicalizes a traffic pattern. Grid-bound patterns reduce
// to a short tag: their grid is the recipe's own topology, already named
// in its key.
func patternKey(p traffic.Pattern) string {
	switch p := p.(type) {
	case traffic.UniformRandom:
		return fmt.Sprintf("ur%d", p.N)
	case traffic.NearestNeighbor:
		return "nn"
	case traffic.Transpose:
		return "tp"
	case traffic.BitComplement:
		return fmt.Sprintf("bc%d", p.N)
	default:
		return fmt.Sprintf("%T%+v", p, p)
	}
}

// mcKey canonicalizes a memory-controller tile set. nil means the cmp
// default (corner placement), spelled out so Fig13's explicit corner
// reference hits the same entries as Fig10/11's default-placement runs.
func mcKey(l core.Layout, mcTiles []int) string {
	if mcTiles == nil {
		w, h := l.Mesh.Dims()
		mcTiles = mem.Tiles(mem.PlacementCorners, w, h)
	}
	return fmt.Sprint(mcTiles)
}

// appKey addresses one runApp CMP run (default cores, default routing).
func appKey(l core.Layout, bench string, sc Scale, mcTiles []int, prefetch bool) string {
	return fmt.Sprintf("app|%s|%s|mc=%s|pf=%t|sc=%s/%d/%d",
		layoutKey(l), bench, mcKey(l, mcTiles), prefetch,
		sc.Name, sc.CMPWarmupEntries, sc.CMPCycles)
}

// urAppKey addresses one closed-loop UR CMP run (no warmup).
func urAppKey(l core.Layout, sc Scale, mcTiles []int) string {
	return fmt.Sprintf("urapp|%s|mc=%s|sc=%s/%d",
		layoutKey(l), mcKey(l, mcTiles), sc.Name, sc.CMPCycles)
}

// asymKey addresses one Fig14 run: the layout, whether the large tiles'
// flows use table routing, the large-tile set and which of the 64 tiles
// run a trace (the rest idle).
func asymKey(l core.Layout, table bool, largeTiles []int, active func(int) bool, sc Scale) string {
	var mask uint64
	for t := 0; t < 64; t++ {
		if active(t) {
			mask |= 1 << t
		}
	}
	return fmt.Sprintf("asym|%s|table=%t|large=%v|active=%016x|sc=%s/%d/%d",
		layoutKey(l), table, largeTiles, mask,
		sc.Name, sc.CMPWarmupEntries, sc.CMPCycles)
}
