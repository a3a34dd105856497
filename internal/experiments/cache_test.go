package experiments

import (
	"context"
	"reflect"
	"testing"

	"heteronoc/internal/cmp/mem"
	"heteronoc/internal/core"
	"heteronoc/internal/fault"
	"heteronoc/internal/noc"
	"heteronoc/internal/runcache"
	"heteronoc/internal/topology"
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
	rec := layoutRecipe(core.NewBaseline(4, 4), traffic.UniformRandom{N: 16}, 0.02, sc)

	first, err := runNet(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runNet(context.Background(), rec)
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
	other := rec
	other.rate = 0.03
	if _, err := runNet(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if hit, miss := runcache.Stats(); hit != 1 || miss != 2 {
		t.Fatalf("after new rate: stats = %d/%d, want 1 hit / 2 misses", hit, miss)
	}

	// And the memoized result matches a genuinely uncached simulation.
	runcache.SetEnabled(false)
	defer runcache.SetEnabled(true)
	fresh, err := runNet(context.Background(), rec)
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

	first, err := runApp(context.Background(), l, "SPECjbb", sc, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	w, h := l.Mesh.Dims()
	corners := mem.Tiles(mem.PlacementCorners, w, h)
	again, err := runApp(context.Background(), l, "SPECjbb", sc, corners, false)
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
	fresh, err := runApp(context.Background(), l, "SPECjbb", sc, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Fatal("cached runApp result differs from a -nocache run")
	}
}

// TestNetRecipeKeyCoversEveryInput changes one input of a network recipe
// at a time and requires a new key for each: a key that missed an input
// would serve one run's result for another. Every router-config field is
// flipped by reflection, so a field added to noc.RouterConfig without a
// place in the key fails here.
func TestNetRecipeKeyCoversEveryInput(t *testing.T) {
	l := core.NewLayout(core.PlacementDiagonal, 4, 4, true)
	base := func() netRecipe {
		r := layoutRecipe(l, traffic.UniformRandom{N: 16}, 0.02, cacheTestScale("keytest"))
		r.routing = "fault-table"
		r.faults = new(fault.Plan).FailLink(5, 1, topology.PortEast)
		return r
	}
	cases := map[string]func(r *netRecipe){
		"topology":        func(r *netRecipe) { r.topo = topology.NewTorus(4, 4) },
		"concentration":   func(r *netRecipe) { r.topo = topology.NewCMesh(4, 4, 1) },
		"routing":         func(r *netRecipe) { r.routing = "xy" },
		"router count":    func(r *netRecipe) { r.routers = r.routers[:15] },
		"router position": func(r *netRecipe) { r.routers[0], r.routers[1] = r.routers[1], r.routers[0] },
		"no faults":       func(r *netRecipe) { r.faults = nil },
		"empty plan":      func(r *netRecipe) { r.faults = new(fault.Plan) },
		"fault cycle":     func(r *netRecipe) { r.faults = new(fault.Plan).FailLink(6, 1, topology.PortEast) },
		"fault router":    func(r *netRecipe) { r.faults = new(fault.Plan).FailLink(5, 2, topology.PortEast) },
		"fault port":      func(r *netRecipe) { r.faults = new(fault.Plan).FailLink(5, 1, topology.PortSouth) },
		"fault kind":      func(r *netRecipe) { r.faults = new(fault.Plan).FailRouter(5, 1) },
		"transient":       func(r *netRecipe) { r.faults = new(fault.Plan).AddTransient(5, 1, topology.PortEast, 10, false) },
		"duration":        func(r *netRecipe) { r.faults = new(fault.Plan).AddTransient(5, 1, topology.PortEast, 11, false) },
		"corrupt":         func(r *netRecipe) { r.faults = new(fault.Plan).AddTransient(5, 1, topology.PortEast, 10, true) },
		"second fault":    func(r *netRecipe) { r.faults.FailLink(9, 3, topology.PortSouth) },
		"pattern":         func(r *netRecipe) { r.pattern = traffic.Transpose{Grid: l.Mesh} },
		"pattern size":    func(r *netRecipe) { r.pattern = traffic.UniformRandom{N: 15} },
		"rate":            func(r *netRecipe) { r.rate = 0.021 },
		"process":         func(r *netRecipe) { r.selfSimilar = true },
		"scale name":      func(r *netRecipe) { r.sc.Name = "keytest2" },
		"warmup packets":  func(r *netRecipe) { r.sc.WarmupPackets++ },
		"measure packets": func(r *netRecipe) { r.sc.MeasurePackets++ },
	}
	rcType := reflect.TypeOf(noc.RouterConfig{})
	for i := 0; i < rcType.NumField(); i++ {
		name := rcType.Field(i).Name
		cases["router "+name] = func(r *netRecipe) {
			f := reflect.ValueOf(&r.routers[3]).Elem().Field(i)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			default:
				t.Fatalf("RouterConfig.%s: no mutation for kind %s", name, f.Kind())
			}
		}
	}
	want := base().key()
	if again := base().key(); again != want {
		t.Fatalf("one recipe, two keys:\n%s\n%s", want, again)
	}
	seen := map[string]string{want: "base"}
	for name, change := range cases {
		r := base()
		change(&r)
		k := r.key()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key equals the %s recipe's: %s", name, prev, k)
		}
		seen[k] = name
	}
}

var keySink string

// BenchmarkNetRecipeKey times building a layout recipe and its key, which
// every served /run of a network figure does on its memory-hit path.
func BenchmarkNetRecipeKey(b *testing.B) {
	l := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	sc := Quick()
	for i := 0; i < b.N; i++ {
		keySink = layoutRecipe(l, traffic.UniformRandom{N: 64}, 0.048, sc).key()
	}
}

// TestFigureOutputIdenticalWithAndWithoutCache is the end-to-end
// transparency gate of the acceptance criteria: a figure regeneration
// renders byte-identical markdown whether its runs come from the cache or
// from fresh simulations, and every simulation it makes is a recipe: the
// cold run executes recipes and the warm run none. Fig1 covers the
// network runs, Fig2 the concentrated mesh and flattened butterfly, Fig14
// the asymmetric-CMP runs, and the extensions the modified router
// configs, other topologies, adaptive routing, the prefetcher and the
// faulted networks with their reliability runs.
func TestFigureOutputIdenticalWithAndWithoutCache(t *testing.T) {
	defer func() {
		runcache.SetEnabled(true)
		runcache.Reset()
	}()
	for _, fig := range []struct {
		name string
		run  func(context.Context, Scale) (*Report, error)
	}{
		{"fig1", Fig1}, {"fig2", Fig2}, {"fig14", Fig14},
		{"ablation", Ablation}, {"generality", Generality}, {"adaptive", Adaptive},
		{"prefetch", Prefetch}, {"degradation", Degradation},
	} {
		t.Run(fig.name, func(t *testing.T) {
			runcache.SetEnabled(true)
			runcache.Reset()
			sc := cacheTestScale("cachetest-" + fig.name)

			cold, err := fig.run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if runcache.Execs() == 0 {
				t.Fatal("cold figure run executed no recipe; its runs are not routed through runcache")
			}
			execsCold := runcache.Execs()
			warm, err := fig.run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if n := runcache.Execs() - execsCold; n != 0 {
				t.Fatalf("warm figure run executed %d recipes, want 0", n)
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
