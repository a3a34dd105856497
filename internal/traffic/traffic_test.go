package traffic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"heteronoc/internal/noc"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

func TestUniformRandomNeverSelf(t *testing.T) {
	u := UniformRandom{N: 64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		src := rng.Intn(64)
		d := u.Dst(src, rng)
		if d == src {
			t.Fatal("uniform random returned self")
		}
		if d < 0 || d >= 64 {
			t.Fatalf("destination %d out of range", d)
		}
	}
}

func TestUniformRandomCoversAll(t *testing.T) {
	u := UniformRandom{N: 8}
	rng := rand.New(rand.NewSource(2))
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[u.Dst(0, rng)] = true
	}
	if len(seen) != 7 {
		t.Errorf("covered %d destinations, want 7", len(seen))
	}
}

func TestNearestNeighborAdjacency(t *testing.T) {
	m := topology.NewMesh(8, 8)
	nn := NearestNeighbor{Grid: m}
	rng := rand.New(rand.NewSource(3))
	f := func(s uint8) bool {
		src := int(s) % 64
		d := nn.Dst(src, rng)
		return m.HopsXY(src, d) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranspose(t *testing.T) {
	m := topology.NewMesh(8, 8)
	tr := Transpose{Grid: m}
	rng := rand.New(rand.NewSource(4))
	if d := tr.Dst(1, rng); d != 8 {
		t.Errorf("transpose(1) = %d, want 8", d)
	}
	if d := tr.Dst(26, rng); d != 19 { // (2,3) -> (3,2)
		t.Errorf("transpose(26) = %d, want 19", d)
	}
	// Diagonal falls back to some other node.
	if d := tr.Dst(9, rng); d == 9 {
		t.Error("transpose of diagonal returned self")
	}
}

func TestBitComplement(t *testing.T) {
	b := BitComplement{N: 64}
	rng := rand.New(rand.NewSource(5))
	if d := b.Dst(0, rng); d != 63 {
		t.Errorf("complement(0) = %d, want 63", d)
	}
	if d := b.Dst(10, rng); d != 53 {
		t.Errorf("complement(10) = %d, want 53", d)
	}
}

func TestBernoulliRate(t *testing.T) {
	p := Bernoulli{P: 0.1}
	rng := rand.New(rand.NewSource(6))
	fires := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if p.Fire(0, int64(i), rng) {
			fires++
		}
	}
	got := float64(fires) / trials
	if got < 0.09 || got > 0.11 {
		t.Errorf("bernoulli(0.1) measured %.4f", got)
	}
}

func TestSelfSimilarMeanRate(t *testing.T) {
	s := NewSelfSimilar(4, 0.05)
	rng := rand.New(rand.NewSource(7))
	fires := 0
	const trials = 400000
	for i := 0; i < trials; i++ {
		for term := 0; term < 4; term++ {
			if s.Fire(term, int64(i), rng) {
				fires++
			}
		}
	}
	got := float64(fires) / (4 * trials)
	if got < 0.03 || got > 0.07 {
		t.Errorf("self-similar mean rate %.4f, want ~0.05", got)
	}
}

func TestSelfSimilarBurstiness(t *testing.T) {
	// The variance of per-window packet counts must exceed a Bernoulli
	// process of the same mean (that is what bursty means).
	const rate, windows, winLen = 0.05, 400, 100
	count := func(p Process, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		out := make([]float64, windows)
		for w := 0; w < windows; w++ {
			c := 0
			for i := 0; i < winLen; i++ {
				if p.Fire(0, int64(w*winLen+i), rng) {
					c++
				}
			}
			out[w] = float64(c)
		}
		return out
	}
	varOf := func(xs []float64) float64 {
		var sum, sq float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		return sq / float64(len(xs))
	}
	vs := varOf(count(NewSelfSimilar(1, rate), 8))
	vb := varOf(count(Bernoulli{P: rate}, 8))
	if vs <= vb {
		t.Errorf("self-similar window variance %.3f not above bernoulli %.3f", vs, vb)
	}
}

func buildBaseline() (*noc.Network, error) {
	m := topology.NewMesh(8, 8)
	return noc.New(noc.Config{
		Topo:           m,
		Routing:        routing.NewXY(m),
		Routers:        []noc.RouterConfig{{VCs: 3, BufDepth: 5}},
		FlitWidthBits:  192,
		WatchdogCycles: 20000,
	})
}

func TestRunProducesStats(t *testing.T) {
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, RunConfig{
		Pattern:        UniformRandom{N: 64},
		Process:        Bernoulli{P: 0.01},
		DataFlits:      6,
		WarmupPackets:  200,
		MeasurePackets: 2000,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency <= 0 {
		t.Error("no latency measured")
	}
	if res.Saturated {
		t.Error("low-load run reported saturated")
	}
	if res.AcceptedRate < 0.008 || res.AcceptedRate > 0.012 {
		t.Errorf("accepted rate %.4f, want ~0.01", res.AcceptedRate)
	}
	sum := res.QueuingLatency + res.BlockingLatency + res.TransferLatency
	if diff := sum - res.AvgLatency; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("breakdown sums to %.3f, total %.3f", sum, res.AvgLatency)
	}
}

func TestRunDetectsSaturation(t *testing.T) {
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, RunConfig{
		Pattern:        UniformRandom{N: 64},
		Process:        Bernoulli{P: 0.2}, // way past saturation
		DataFlits:      6,
		WarmupPackets:  200,
		MeasurePackets: 3000,
		Seed:           1,
		MaxCycles:      5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Error("overdriven network not reported saturated")
	}
	if res.AcceptedRate >= res.OfferedRate {
		t.Error("accepted >= offered past saturation")
	}
}

// TestSweepMonotoneLatency runs two points of a load sweep, each on a
// fresh network, and requires latency to grow with load.
func TestSweepMonotoneLatency(t *testing.T) {
	var lat []float64
	for _, rate := range []float64{0.005, 0.03} {
		net, err := buildBaseline()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(net, RunConfig{
			Pattern:        UniformRandom{N: 64},
			Process:        Bernoulli{P: rate},
			DataFlits:      6,
			WarmupPackets:  100,
			MeasurePackets: 1500,
			Seed:           1,
		})
		if err != nil {
			t.Fatal(err)
		}
		lat = append(lat, res.AvgLatency)
	}
	if lat[1] <= lat[0] {
		t.Errorf("latency did not grow with load: %.2f -> %.2f", lat[0], lat[1])
	}
}

func TestInjectionFairnessAcrossSources(t *testing.T) {
	// Under UR Bernoulli traffic every source must receive service within
	// a reasonable band of the mean (no source starves).
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 64)
	net.SetOnPacket(func(p *noc.Packet) { counts[p.Src]++ })
	_, err = Run(net, RunConfig{
		Pattern:        UniformRandom{N: 64},
		Process:        Bernoulli{P: 0.02},
		DataFlits:      6,
		WarmupPackets:  0,
		MeasurePackets: 12000,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	mean := float64(total) / 64
	for src, c := range counts {
		if float64(c) < mean*0.6 || float64(c) > mean*1.4 {
			t.Errorf("source %d delivered %d packets, mean %.0f (unfair)", src, c, mean)
		}
	}
}

func TestHotspotConcentration(t *testing.T) {
	h := Hotspot{N: 64, Hot: 27, Frac: 0.3}
	rng := rand.New(rand.NewSource(11))
	hot := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		src := rng.Intn(64)
		d := h.Dst(src, rng)
		if d == src {
			t.Fatal("hotspot returned self")
		}
		if d == 27 {
			hot++
		}
	}
	frac := float64(hot) / trials
	// 30% targeted + ~1.1% of the uniform remainder.
	if frac < 0.27 || frac > 0.36 {
		t.Errorf("hot fraction %.3f, want ~0.31", frac)
	}
}

// wrappedPattern hides a Pattern's concrete type, as a caller-side
// decorator (a timing or logging wrapper) does, and records the sources it
// is asked to serve.
type wrappedPattern struct {
	Pattern
	srcs map[int]bool
}

func (p wrappedPattern) Dst(src int, rng *rand.Rand) int {
	p.srcs[src] = true
	return p.Pattern.Dst(src, rng)
}

// TestWrappedPatternInjectsAtEveryTerminal runs uniform random traffic
// twice on meshes that do not have 64 terminals, once with the plain
// pattern and once wrapped in another type. The injection loop takes its
// terminal count from the network, so the wrapper must not change which
// terminals inject: both runs must end with the same fingerprint, and the
// wrapped run must draw for the network's terminals only and for most of
// them (each fires about four times).
func TestWrappedPatternInjectsAtEveryTerminal(t *testing.T) {
	for _, w := range []int{4, 16} {
		n := w * w
		run := func(p Pattern) uint64 {
			m := topology.NewMesh(w, w)
			net, err := noc.New(noc.Config{
				Topo:           m,
				Routing:        routing.NewXY(m),
				Routers:        []noc.RouterConfig{{VCs: 3, BufDepth: 5}},
				FlitWidthBits:  192,
				WatchdogCycles: 20000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(net, RunConfig{
				Pattern:        p,
				Process:        Bernoulli{P: 0.01},
				DataFlits:      6,
				WarmupPackets:  n / 4,
				MeasurePackets: 4 * n,
				Seed:           1,
			}); err != nil {
				t.Fatal(err)
			}
			return net.Stats().Fingerprint()
		}
		ur := UniformRandom{N: n}
		wrapped := wrappedPattern{ur, map[int]bool{}}
		if a, b := run(ur), run(wrapped); a != b {
			t.Errorf("%dx%d: wrapped UR fingerprint %016x, plain UR %016x", w, w, b, a)
		}
		for src := range wrapped.srcs {
			if src >= n {
				t.Fatalf("%dx%d: injected at terminal %d of %d", w, w, src, n)
			}
		}
		if len(wrapped.srcs) < 3*n/4 {
			t.Errorf("%dx%d: %d of %d terminals injected", w, w, len(wrapped.srcs), n)
		}
	}
}
