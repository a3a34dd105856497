package par_test

// The cross-package determinism property of the sharded tick: a real
// network driven through ShardedTick-backed intra-cycle sharding must
// produce bit-identical state at every worker count. This lives in an
// external test package because noc imports par for the worker pool.

import (
	"math/rand"
	"runtime"
	"testing"

	"heteronoc/internal/core"
	"heteronoc/internal/noc"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
	"heteronoc/internal/traffic"
)

// fingerprintWorkers runs a fixed traffic scenario on the Diagonal+BL
// layout (wide links, split-datapath allocator — the kernel's hardest
// mode) with intra-cycle sharding at the given worker count and returns
// the network fingerprint. workers = 0 is the sequential kernel.
func fingerprintWorkers(t *testing.T, workers int) uint64 {
	t.Helper()
	l := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	net, err := l.Network()
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		net.SetShardWorkers(workers)
		defer net.Close()
	}
	gen := traffic.UniformRandom{N: 64}
	proc := traffic.Bernoulli{P: 0.05}
	rng := rand.New(rand.NewSource(99))
	for cyc := 0; cyc < 3000; cyc++ {
		for term := 0; term < 64; term++ {
			if proc.Fire(term, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: term, Dst: gen.Dst(term, rng), NumFlits: 8})
			}
		}
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return net.Fingerprint()
}

// TestShardedTickDeterminism: 1, 2 and GOMAXPROCS workers must all produce
// the network state the sequential kernel produces, bit for bit.
func TestShardedTickDeterminism(t *testing.T) {
	want := fingerprintWorkers(t, 0)
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		if got := fingerprintWorkers(t, w); got != want {
			t.Errorf("%d workers: fingerprint %016x, sequential %016x", w, got, want)
		}
	}
}

// fingerprintTiny runs a fixed scenario on a 2x2 mesh — fewer routers than
// any realistic worker request — and returns the network fingerprint.
func fingerprintTiny(t *testing.T, workers int) uint64 {
	t.Helper()
	l := core.NewLayout(core.PlacementDiagonal, 2, 2, true)
	net, err := l.Network()
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		net.SetShardWorkers(workers)
		defer net.Close()
		if nr, got := 4, net.ShardWorkers(); workers > nr && got != nr {
			t.Fatalf("requested %d workers on %d routers: pool holds %d, want clamp to %d",
				workers, nr, got, nr)
		}
	}
	gen := traffic.UniformRandom{N: 4}
	proc := traffic.Bernoulli{P: 0.2}
	rng := rand.New(rand.NewSource(7))
	for cyc := 0; cyc < 500; cyc++ {
		for term := 0; term < 4; term++ {
			if proc.Fire(term, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: term, Dst: gen.Dst(term, rng), NumFlits: 4})
			}
		}
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return net.Fingerprint()
}

// TestShardWorkersClampedToRouters: asking for far more workers than the
// mesh has routers must clamp the pool to the router count (no goroutines
// that could never hold a router) and still reproduce the sequential
// kernel's state byte for byte.
func TestShardWorkersClampedToRouters(t *testing.T) {
	want := fingerprintTiny(t, 0)
	for _, w := range []int{3, 16, 64} {
		if got := fingerprintTiny(t, w); got != want {
			t.Errorf("%d workers: fingerprint %016x, sequential %016x", w, got, want)
		}
	}
}

// spanCase is one scenario of TestShardedSpansMatchOneSpan: a network
// builder, a traffic pattern over its terminals, an injection rate and a
// cycle count.
type spanCase struct {
	name    string
	build   func() (*noc.Network, error)
	pattern func(terms int) traffic.Pattern
	rate    float64
	cycles  int
}

// fig2Network builds one of Fig 2's two 64-terminal networks.
func fig2Network(topo topology.Topology, alg routing.Algorithm) func() (*noc.Network, error) {
	return func() (*noc.Network, error) {
		return noc.New(noc.Config{Topo: topo, Routing: alg,
			Routers: []noc.RouterConfig{{VCs: 3, BufDepth: 5}}, WatchdogCycles: 100000})
	}
}

// spanRun is what TestShardedSpansMatchOneSpan compares: the statistics
// and network fingerprints, plus a hash of the delivery callbacks in call
// order.
type spanRun struct{ stats, net, order uint64 }

// runSpans drives one case with the given shard workers (0 = the one-span
// kernel). Every delivered request triggers a two-flit reply injected from
// the delivery callback, as the CMP's protocol handlers do, so the order
// of the queued ejections reaches the packet IDs, the traffic and the
// order hash.
func runSpans(t *testing.T, c spanCase, workers int) spanRun {
	t.Helper()
	net, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		net.SetShardWorkers(workers)
		defer net.Close()
	}
	var order uint64
	net.SetOnPacket(func(p *noc.Packet) {
		order = (order ^ p.ID) * 0x100000001b3
		if p.Class == 0 && p.ID%2 == 0 {
			net.Inject(&noc.Packet{Src: p.Dst, Dst: p.Src, NumFlits: 2, Class: 1})
		}
	})
	terms := net.Config().Topo.NumTerminals()
	pattern := c.pattern(terms)
	proc := traffic.Bernoulli{P: c.rate}
	rng := rand.New(rand.NewSource(11))
	for cyc := 0; cyc < c.cycles; cyc++ {
		for term := 0; term < terms; term++ {
			if proc.Fire(term, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: term, Dst: pattern.Dst(term, rng), NumFlits: 6})
			}
		}
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("%s, %d workers: %v", c.name, workers, err)
	}
	if net.Stats().PacketsReceived == 0 {
		t.Fatalf("%s: no packet delivered in %d cycles", c.name, c.cycles)
	}
	return spanRun{net.Stats().Fingerprint(), net.Fingerprint(), order}
}

// TestShardedSpansMatchOneSpan: beyond the goldens' 16x16, every span
// count reproduces the one-span kernel bit for bit, on 1,024 routers under
// uniform and hotspot traffic, on a torus, and on Fig 2's concentrated
// mesh and flattened butterfly, whose routers serve four terminals each.
func TestShardedSpansMatchOneSpan(t *testing.T) {
	uniform := func(terms int) traffic.Pattern { return traffic.UniformRandom{N: terms} }
	cm := topology.NewCMesh(4, 4, 4)
	fb := topology.NewFBfly(4, 4, 4)
	cases := []spanCase{
		{"32x32 Diagonal+BL uniform", core.NewLayout(core.PlacementDiagonal, 32, 32, true).Network,
			uniform, 0.0075, 500},
		{"32x32 Diagonal+BL hotspot", core.NewLayout(core.PlacementDiagonal, 32, 32, true).Network,
			func(terms int) traffic.Pattern { return traffic.Hotspot{N: terms, Hot: 100, Frac: 0.1} }, 0.006, 500},
		{"8x8 torus", core.NewLayout(core.PlacementDiagonal, 8, 8, true).OnTorus().Network,
			uniform, 0.03, 1500},
		{"fig2 concentrated mesh", fig2Network(cm, routing.NewXY(cm)), uniform, 0.04, 1500},
		{"fig2 flattened butterfly", fig2Network(fb, routing.NewFBflyRC(fb)), uniform, 0.06, 1500},
	}
	for _, c := range cases {
		want := runSpans(t, c, 0)
		for _, w := range []int{2, 3, 5} {
			if got := runSpans(t, c, w); got != want {
				t.Errorf("%s, %d workers: fingerprints (stats %016x, network %016x, deliveries %016x), one span (%016x, %016x, %016x)",
					c.name, w, got.stats, got.net, got.order, want.stats, want.net, want.order)
			}
		}
	}
}
