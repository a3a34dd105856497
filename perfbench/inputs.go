package main

import (
	"fmt"
	"math/rand"
)

// The generators below turn a workload seed into the complete input set of
// one workload. The workloads receive only these values, never the seed,
// so what a run simulates is exactly what its inputs say.
//
// Every seed draws the same amount of work: the seed moves traffic seeds,
// hot spots, failed links, address-space placement and which requests
// repeat, but not sizes, rates or counts. That keeps the host-time metrics
// comparable across seeds, which is what the benchmark's spread bounds
// assume.

// defaultSeed is the seed whose simulated outputs are pinned in
// expected.json.
const defaultSeed = 1

// seeded returns a generator for one input family of a seed, so adding a
// family never shifts the draws of another.
func seeded(seed int64, family string) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, c := range family {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// synthRun is one traffic.Run call of noc-synth.
type synthRun struct {
	Name    string
	Layout  string // "Baseline" or "Diagonal+BL"
	Size    int    // mesh side
	Pattern string // "uniform", "hotspot" or "transpose"
	HotNode int    // hotspot destination
	Rate    float64
	Warmup  int
	Measure int
	Seed    int64
	Shards  int  // shard workers; 0 runs the sequential kernel
	Traced  bool // attach a full-detail FlitTracer
}

// reliableRun is the fault-armed noc.Reliable run of noc-synth.
type reliableRun struct {
	Name         string
	Layout       string
	FailedLinks  int
	Transients   int
	PlanSeed     int64
	TrafficSeed  int64
	FlitRate     float64
	InjectCycles int64
}

type nocSynthInputs struct {
	Runs     []synthRun
	Reliable reliableRun
}

func genNocSynth(seed int64) nocSynthInputs {
	r := seeded(seed, "noc-synth")
	// Interior nodes of the 8x8 mesh, so a hotspot always has four
	// neighbours to converge through.
	hot := func() int { return (1+r.Intn(6))*8 + 1 + r.Intn(6) }
	var in nocSynthInputs
	add := func(name, layout, pattern string, rate float64) {
		in.Runs = append(in.Runs, synthRun{
			Name: name + "/" + layout, Layout: layout, Size: 8, Pattern: pattern,
			Rate: rate, Warmup: 500, Measure: 6000, Seed: r.Int63(),
		})
	}
	for _, l := range []string{"Baseline", "Diagonal+BL"} {
		add("ur-light", l, "uniform", 0.01)
		add("ur-knee", l, "uniform", 0.04)
		add("transpose", l, "transpose", 0.02)
		add("hotspot", l, "hotspot", 0.015)
		in.Runs[len(in.Runs)-1].HotNode = hot()
	}
	twin := r.Int63()
	for _, traced := range []bool{false, true} {
		name := "tracer-twin/untraced"
		if traced {
			name = "tracer-twin/traced"
		}
		in.Runs = append(in.Runs, synthRun{
			Name: name, Layout: "Baseline", Size: 8, Pattern: "uniform",
			Rate: 0.03, Warmup: 500, Measure: 4000, Seed: twin, Traced: traced,
		})
	}
	// Bisection-scaled rate: 0.03 at 8x8 becomes 0.03*8/32 at 32x32, the
	// same fraction of saturation.
	in.Runs = append(in.Runs, synthRun{
		Name: "ur-32x32/Diagonal+BL", Layout: "Diagonal+BL", Size: 32, Pattern: "uniform",
		Rate: 0.0075, Warmup: 1000, Measure: 8000, Seed: r.Int63(), Shards: 2,
	})
	in.Reliable = reliableRun{
		Name: "reliable/Diagonal+BL", Layout: "Diagonal+BL",
		FailedLinks: 4, Transients: 4, PlanSeed: r.Int63(), TrafficSeed: r.Int63(),
		FlitRate: 0.12, InjectCycles: 3000,
	}
	return in
}

// cmpWorkload is one trace workload of cmp-apps. BaseLine places the
// workload's address space (in cache lines), which moves every line's home
// tile and memory controller; MorphSeed fixes the mc-incast rewrite.
type cmpWorkload struct {
	Name      string
	FromFile  bool // replay from an HNTR2 file recorded during set-up
	BaseLine  uint64
	MorphSeed uint64
}

type cmpInputs struct {
	Workloads   []cmpWorkload
	Layouts     []string
	WarmEntries int
	Cycles      int64
	// FileEntries is the per-core length of a recorded trace: the warmup
	// plus more entries than Cycles of any core can consume.
	FileEntries int
}

func genCmpApps(seed int64) cmpInputs {
	r := seeded(seed, "cmp-apps")
	in := cmpInputs{
		Layouts:     []string{"Baseline", "Diagonal+BL"},
		WarmEntries: 8000,
		Cycles:      6000,
		FileEntries: 8000 + 6000,
	}
	for _, w := range []struct {
		name string
		file bool
	}{{"SPECjbb", false}, {"canneal", true}, {"mc-incast", false}} {
		in.Workloads = append(in.Workloads, cmpWorkload{
			Name: w.name, FromFile: w.file,
			BaseLine: uint64(r.Int63n(1 << 20)), MorphSeed: r.Uint64(),
		})
	}
	return in
}

// scaleSpec is one simulation scale the benchmark registers with the
// server. Scales differ only in warmup length, so every scale costs about
// the same while producing its own results.
type scaleSpec struct {
	Name           string
	WarmupPackets  int
	MeasurePackets int
}

type serveRequest struct {
	Experiment, Scale string
}

// searchSpec fixes the DSE searcher's recipe.
type searchSpec struct {
	W, H               int
	MinBig, MaxBig     int
	Pop, Generations   int
	Rate               float64
	Packets            int
	ProbeSeed, RNGSeed int64
}

type serveInputs struct {
	Scales []scaleSpec
	// Stream is the figure requester's request sequence; the first
	// occurrence of a request misses the cache, later ones hit it.
	Stream []serveRequest
	Search searchSpec
}

// Request-stream shape: uniques distinct scales, each first requested
// cold, and repeats requests drawn again from them.
const (
	serveScales = 24
	uniques     = 12
	repeats     = 24
)

// serveExperiment is the experiment the figure requester asks for. fig1
// runs a single simulation, so every miss, memory hit and disk hit costs
// the same whichever scales a seed picks, and the latency percentiles fall
// inside one of those classes rather than on a boundary between them.
const serveExperiment = "fig1"

func genServeMixed(seed int64) serveInputs {
	r := seeded(seed, "serve-mixed")
	var in serveInputs
	for k := 0; k < serveScales; k++ {
		in.Scales = append(in.Scales, scaleSpec{
			Name: fmt.Sprintf("pb%02d", k), WarmupPackets: 100 + 10*k, MeasurePackets: 5000,
		})
	}
	var uniq []serveRequest
	for _, k := range r.Perm(serveScales)[:uniques] {
		uniq = append(uniq, serveRequest{serveExperiment, in.Scales[k].Name})
	}
	in.Stream = append(in.Stream, uniq...)
	for i := 0; i < repeats; i++ {
		in.Stream = append(in.Stream, uniq[r.Intn(len(uniq))])
	}
	r.Shuffle(len(in.Stream), func(i, j int) { in.Stream[i], in.Stream[j] = in.Stream[j], in.Stream[i] })
	in.Search = searchSpec{
		W: 4, H: 4, MinBig: 3, MaxBig: 5, Pop: 8, Generations: 3,
		Rate: 0.05, Packets: 300, ProbeSeed: r.Int63n(1 << 30), RNGSeed: r.Int63n(1 << 30),
	}
	return in
}
