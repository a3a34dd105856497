package experiments

import (
	"context"
	"reflect"
	"testing"

	"heteronoc/internal/cmp/mem"
	"heteronoc/internal/core"
	"heteronoc/internal/runcache"
	"heteronoc/internal/traffic"
)

// cacheTestScale is deliberately tiny: these tests exercise the cache
// plumbing, not simulation fidelity.
func cacheTestScale(name string) Scale {
	return Scale{
		Name:             name,
		WarmupPackets:    20,
		MeasurePackets:   200,
		SweepPoints:      2,
		CMPWarmupEntries: 500,
		CMPCycles:        300,
		DSEPackets:       50,
		DSECandidates:    2,
	}
}

// TestRunNetCached pins that repeated network probes reuse the first run
// and that the memoized result is identical to a fresh one.
func TestRunNetCached(t *testing.T) {
	runcache.Reset()
	defer runcache.Reset()
	sc := cacheTestScale("cachetest-net")
	l := core.NewBaseline(4, 4)
	pat := traffic.UniformRandom{N: 16}

	first, err := runNet(context.Background(), l, pat, 0.02, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runNet(context.Background(), l, pat, 0.02, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("cached runNet result differs from the original")
	}
	if hit, miss := runcache.Stats(); hit != 1 || miss != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hit, miss)
	}

	// A different rate is a different recipe: no false sharing.
	if _, err := runNet(context.Background(), l, pat, 0.03, sc, false); err != nil {
		t.Fatal(err)
	}
	if hit, miss := runcache.Stats(); hit != 1 || miss != 2 {
		t.Fatalf("after new rate: stats = %d/%d, want 1 hit / 2 misses", hit, miss)
	}

	// And the memoized result matches a genuinely uncached simulation.
	runcache.SetEnabled(false)
	defer runcache.SetEnabled(true)
	fresh, err := runNet(context.Background(), l, pat, 0.02, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Fatal("cached result differs from a -nocache run")
	}
}

// TestRunAppCached pins CMP-run memoization, including the mcTiles
// canonicalization: a nil tile set (cmp default = corners) and an explicit
// corner set are the same recipe, which is what lets Fig13's reference
// configuration reuse Fig10/11's baseline runs.
func TestRunAppCached(t *testing.T) {
	runcache.Reset()
	defer runcache.Reset()
	sc := cacheTestScale("cachetest-app")
	l := core.NewBaseline(4, 4)

	first, err := runApp(context.Background(), l, "SPECjbb", sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, h := l.Mesh.Dims()
	corners := mem.Tiles(mem.PlacementCorners, w, h)
	again, err := runApp(context.Background(), l, "SPECjbb", sc, corners)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("explicit-corner run differs from default-placement run")
	}
	// Two misses: the app entry plus the shared warm checkpoint it
	// populated. The corner-canonicalized repeat is one hit and never
	// consults the warm entry.
	if hit, miss := runcache.Stats(); hit != 1 || miss != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1/2 (corner canonicalization)", hit, miss)
	}

	// Cached result equals a fresh simulation.
	runcache.SetEnabled(false)
	defer runcache.SetEnabled(true)
	fresh, err := runApp(context.Background(), l, "SPECjbb", sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Fatal("cached runApp result differs from a -nocache run")
	}
}

// TestFigureOutputIdenticalWithAndWithoutCache is the end-to-end
// transparency gate of the acceptance criteria: a full figure regeneration
// renders byte-identical markdown whether its runs come from the cache or
// from fresh simulations. Fig1 covers the network runs, Fig14 the
// asymmetric-CMP runs.
func TestFigureOutputIdenticalWithAndWithoutCache(t *testing.T) {
	defer func() {
		runcache.SetEnabled(true)
		runcache.Reset()
	}()
	for _, fig := range []struct {
		name string
		run  func(context.Context, Scale) (*Report, error)
	}{{"fig1", Fig1}, {"fig14", Fig14}} {
		t.Run(fig.name, func(t *testing.T) {
			runcache.SetEnabled(true)
			runcache.Reset()
			sc := cacheTestScale("cachetest-" + fig.name)

			cold, err := fig.run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			_, missCold := runcache.Stats()
			if missCold == 0 {
				t.Fatal("cold figure run recorded no cache misses; its runs are not routed through runcache")
			}
			warm, err := fig.run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			hitWarm, missWarm := runcache.Stats()
			if hitWarm == 0 || missWarm != missCold {
				t.Fatalf("warm figure run: stats = %d hits / %d misses, want hits > 0 and no new misses", hitWarm, missWarm)
			}
			runcache.SetEnabled(false)
			uncached, err := fig.run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Markdown() != cold.Markdown() {
				t.Fatal("cache-served figure differs from the run that populated the cache")
			}
			if uncached.Markdown() != cold.Markdown() {
				t.Fatal("figure output with cache disabled differs from cached output")
			}
		})
	}
}
