package noc

import (
	"math/rand"
	"testing"

	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// newMeshNet builds a homogeneous 8x8 mesh network with the paper's
// baseline parameters (3 VCs, 5-deep buffers, 192-bit flits).
func newMeshNet(t testing.TB) *Network {
	t.Helper()
	m := topology.NewMesh(8, 8)
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewXY(m),
		Routers:        []RouterConfig{{VCs: 3, BufDepth: 5}},
		FlitWidthBits:  192,
		WatchdogCycles: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// runUntilQuiesced steps the network until no traffic remains, failing
// the test if that takes more than maxCycles cycles.
func runUntilQuiesced(t testing.TB, n *Network, maxCycles int) {
	t.Helper()
	for start := n.Cycle(); !n.Quiesced(); {
		if n.Cycle()-start >= int64(maxCycles) {
			t.Fatalf("network did not quiesce within %d cycles (%d flits in flight, %d queued)", maxCycles, n.flitsInNetwork, n.queuedPackets)
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSinglePacketZeroLoad(t *testing.T) {
	n := newMeshNet(t)
	var done *Packet
	n.SetOnPacket(func(p *Packet) { done = p })
	n.Inject(&Packet{Src: 0, Dst: 0, NumFlits: 1})
	runUntilQuiesced(t, n, 100)
	if done == nil {
		t.Fatal("packet not delivered")
	}
	if done.Hops != 0 {
		t.Errorf("hops = %d, want 0", done.Hops)
	}
	total := done.RecvCycle - done.CreateCycle
	queuing := done.InjectCycle - done.CreateCycle
	want := IdealTransferCycles(0, 1, done.MinSlots) + queuing
	if total != want {
		t.Errorf("latency = %d, want %d (queuing %d)", total, want, queuing)
	}
}

func TestZeroLoadLatencyMatchesIdeal(t *testing.T) {
	// Every (src, dst, size) combination at zero load must exactly match
	// the ideal transfer formula plus one cycle of injection alignment, so
	// blocking is zero. This pins the pipeline depth.
	for _, flits := range []int{1, 6, 8} {
		for _, pair := range [][2]int{{0, 63}, {5, 40}, {9, 10}, {63, 0}, {7, 56}} {
			n := newMeshNet(t)
			var done *Packet
			n.SetOnPacket(func(p *Packet) { done = p })
			n.Inject(&Packet{Src: pair[0], Dst: pair[1], NumFlits: flits})
			runUntilQuiesced(t, n, 500)
			if done == nil {
				t.Fatalf("packet %v not delivered", pair)
			}
			m := topology.NewMesh(8, 8)
			if done.Hops != m.HopsXY(pair[0], pair[1]) {
				t.Errorf("%v hops = %d, want %d", pair, done.Hops, m.HopsXY(pair[0], pair[1]))
			}
			total := done.RecvCycle - done.CreateCycle
			queuing := done.InjectCycle - done.CreateCycle
			want := IdealTransferCycles(done.Hops, flits, done.MinSlots) + queuing
			if total != want {
				t.Errorf("%v x%d flits: latency %d, want %d", pair, flits, total, want)
			}
		}
	}
}

func TestStatsBreakdownZeroBlockingAtZeroLoad(t *testing.T) {
	n := newMeshNet(t)
	n.Inject(&Packet{Src: 3, Dst: 60, NumFlits: 6})
	runUntilQuiesced(t, n, 500)
	q, b, tr := n.Stats().Breakdown()
	if b != 0 {
		t.Errorf("blocking = %v, want 0 at zero load", b)
	}
	if q <= 0 || tr <= 0 {
		t.Errorf("queuing %v transfer %v must be positive", q, tr)
	}
	if got := n.Stats().AvgLatency(); got != q+b+tr {
		t.Errorf("breakdown does not sum to total: %v vs %v", q+b+tr, got)
	}
}

func TestAllPacketsDeliveredUR(t *testing.T) {
	n := newMeshNet(t)
	rng := rand.New(rand.NewSource(1))
	want := 0
	received := make(map[uint64]bool)
	n.SetOnPacket(func(p *Packet) {
		if received[p.ID] {
			t.Errorf("packet %d delivered twice", p.ID)
		}
		received[p.ID] = true
	})
	for cycle := 0; cycle < 2000; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.02 {
				dst := rng.Intn(64)
				n.Inject(&Packet{Src: src, Dst: dst, NumFlits: 6})
				want++
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runUntilQuiesced(t, n, 200000)
	if len(received) != want {
		t.Fatalf("delivered %d of %d packets", len(received), want)
	}
	if got := n.Stats().PacketsReceived; got != int64(want) {
		t.Errorf("stats received %d, want %d", got, want)
	}
	if got := n.Stats().FlitsReceived; got != int64(want*6) {
		t.Errorf("stats flits %d, want %d", got, want*6)
	}
}

func TestPacketsArriveAtCorrectDestination(t *testing.T) {
	n := newMeshNet(t)
	rng := rand.New(rand.NewSource(7))
	// The sink callback does not tell us the consuming terminal directly,
	// so we verify via hop counts: delivered hops must equal XY distance.
	m := topology.NewMesh(8, 8)
	n.SetOnPacket(func(p *Packet) {
		if p.Hops != m.HopsXY(p.Src, p.Dst) {
			t.Errorf("packet %d->%d took %d hops, want %d", p.Src, p.Dst, p.Hops, m.HopsXY(p.Src, p.Dst))
		}
	})
	for i := 0; i < 300; i++ {
		n.Inject(&Packet{Src: rng.Intn(64), Dst: rng.Intn(64), NumFlits: 1 + rng.Intn(8)})
	}
	runUntilQuiesced(t, n, 100000)
}

// heteroDiagonalNet builds the Diagonal+BL HeteroNoC of the paper: 16 big
// routers (6 VCs, wide) on the diagonals, 48 small routers (2 VCs), 128-bit
// flits.
func heteroDiagonalNet(t testing.TB) *Network {
	t.Helper()
	m := topology.NewMesh(8, 8)
	routers := make([]RouterConfig, 64)
	for r := range routers {
		routers[r] = RouterConfig{VCs: 2, BufDepth: 5, SplitDatapath: true}
	}
	for i := 0; i < 8; i++ {
		routers[m.RouterAt(i, i)] = RouterConfig{VCs: 6, BufDepth: 5, Wide: true, SplitDatapath: true}
		routers[m.RouterAt(7-i, i)] = RouterConfig{VCs: 6, BufDepth: 5, Wide: true, SplitDatapath: true}
	}
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewXY(m),
		Routers:        routers,
		FlitWidthBits:  128,
		WatchdogCycles: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestHeteroDelivery(t *testing.T) {
	n := heteroDiagonalNet(t)
	rng := rand.New(rand.NewSource(3))
	want := 0
	got := 0
	n.SetOnPacket(func(p *Packet) { got++ })
	for cycle := 0; cycle < 2000; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.02 {
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 8})
				want++
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runUntilQuiesced(t, n, 200000)
	if got != want {
		t.Fatalf("delivered %d of %d packets", got, want)
	}
}

func TestWideLinkCombining(t *testing.T) {
	// Two big routers adjacent on the diagonal: traffic between terminals 0
	// and 9 (routers 0 and 9 both big) flows over wide links only, so a
	// multi-flit packet must be delivered faster than flit-per-cycle
	// serialization would allow.
	n := heteroDiagonalNet(t)
	var done *Packet
	n.SetOnPacket(func(p *Packet) { done = p })
	n.Inject(&Packet{Src: 0, Dst: 9, NumFlits: 8})
	runUntilQuiesced(t, n, 500)
	if done == nil {
		t.Fatal("packet not delivered")
	}
	if done.MinSlots != 2 {
		t.Fatalf("min slots on all-big path = %d, want 2", done.MinSlots)
	}
	total := done.RecvCycle - done.CreateCycle
	queuing := done.InjectCycle - done.CreateCycle
	// Ideal with pairing: serialization ceil(7/2)=4 instead of 7. The
	// 5-deep VC buffers stall the 2-flit/cycle fill briefly before the
	// drain catches up, so allow a small finite-buffer slack — but the
	// result must stay well below the narrow-path serialization (+7).
	ideal := IdealTransferCycles(done.Hops, 8, 2) + queuing
	narrow := IdealTransferCycles(done.Hops, 8, 1) + queuing
	if total < ideal || total > ideal+3 || total >= narrow {
		t.Errorf("wide-path latency %d, want in [%d,%d] and below narrow %d", total, ideal, ideal+3, narrow)
	}
	if n.CombineRate() == 0 {
		t.Error("no combined flit pairs recorded on an all-wide path")
	}
}

func TestCombineRateGrowsWithLoad(t *testing.T) {
	rate := func(inj float64) float64 {
		n := heteroDiagonalNet(t)
		rng := rand.New(rand.NewSource(11))
		for cycle := 0; cycle < 3000; cycle++ {
			for src := 0; src < 64; src++ {
				if rng.Float64() < inj {
					n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 8})
				}
			}
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return n.CombineRate()
	}
	low, high := rate(0.002), rate(0.04)
	if high <= low {
		t.Errorf("combine rate did not grow with load: low=%.3f high=%.3f", low, high)
	}
	// On Diagonal+BL most wide links hang off 2-VC small routers whose
	// narrow feeders limit pairing opportunities; an all-wide network
	// reaches ~0.68 (near the paper's 0.8), the diagonal layout less.
	if high < 0.15 {
		t.Errorf("combine rate at high load = %.3f, expected > 0.15", high)
	}
}

func TestTorusDatelineNoDeadlock(t *testing.T) {
	m := topology.NewTorus(8, 8)
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewTorusXY(m),
		Routers:        []RouterConfig{{VCs: 3, BufDepth: 5}},
		FlitWidthBits:  192,
		WatchdogCycles: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	want, got := 0, 0
	n.SetOnPacket(func(p *Packet) { got++ })
	for cycle := 0; cycle < 3000; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.03 {
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
				want++
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runUntilQuiesced(t, n, 400000)
	if got != want {
		t.Fatalf("torus delivered %d of %d", got, want)
	}
}

func TestCMeshAndFBflyDelivery(t *testing.T) {
	cm := topology.NewCMesh(4, 4, 4)
	fb := topology.NewFBfly(4, 4, 4)
	nets := []*Network{}
	for _, c := range []Config{
		{Topo: cm, Routing: routing.NewXY(cm), Routers: []RouterConfig{{VCs: 3, BufDepth: 5}}, FlitWidthBits: 192, WatchdogCycles: 10000},
		{Topo: fb, Routing: routing.NewFBflyRC(fb), Routers: []RouterConfig{{VCs: 3, BufDepth: 5}}, FlitWidthBits: 192, WatchdogCycles: 10000},
	} {
		n, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	for _, n := range nets {
		rng := rand.New(rand.NewSource(9))
		want, got := 0, 0
		n.SetOnPacket(func(p *Packet) { got++ })
		for cycle := 0; cycle < 1500; cycle++ {
			for src := 0; src < 64; src++ {
				if rng.Float64() < 0.02 {
					n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
					want++
				}
			}
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
		runUntilQuiesced(t, n, 200000)
		if got != want {
			t.Fatalf("%s delivered %d of %d", n.Config().Topo.Name(), got, want)
		}
	}
}

func TestTableRoutingWithEscapeDelivers(t *testing.T) {
	m := topology.NewMesh(8, 8)
	big := make([]bool, 64)
	routers := make([]RouterConfig, 64)
	for r := range routers {
		routers[r] = RouterConfig{VCs: 2, BufDepth: 5}
	}
	for i := 0; i < 8; i++ {
		for _, r := range []int{m.RouterAt(i, i), m.RouterAt(7-i, i)} {
			big[r] = true
			routers[r] = RouterConfig{VCs: 6, BufDepth: 5, Wide: true}
		}
	}
	alg := routing.NewTableXY(m, routing.TableXYConfig{Flagged: []int{0, 7, 56, 63}, Big: big, EscapeThreshold: 32})
	n, err := New(Config{Topo: m, Routing: alg, Routers: routers, FlitWidthBits: 128, WatchdogCycles: 30000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	want, got := 0, 0
	n.SetOnPacket(func(p *Packet) { got++ })
	for cycle := 0; cycle < 4000; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.03 {
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 8})
				want++
			}
		}
		// Large cores blast extra traffic so table paths see contention.
		for _, lc := range []int{0, 7, 56, 63} {
			if rng.Float64() < 0.2 {
				n.Inject(&Packet{Src: lc, Dst: rng.Intn(64), NumFlits: 8})
				want++
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runUntilQuiesced(t, n, 500000)
	if got != want {
		t.Fatalf("table routing delivered %d of %d", got, want)
	}
}

func TestResetStatsExcludesWarmup(t *testing.T) {
	n := newMeshNet(t)
	n.Inject(&Packet{Src: 0, Dst: 63, NumFlits: 6})
	runUntilQuiesced(t, n, 500)
	if n.Stats().PacketsReceived != 1 {
		t.Fatal("warmup packet not counted before reset")
	}
	n.ResetStats()
	if n.Stats().PacketsReceived != 0 {
		t.Fatal("reset did not clear packet count")
	}
	n.Inject(&Packet{Src: 0, Dst: 63, NumFlits: 6})
	runUntilQuiesced(t, n, 500)
	if n.Stats().PacketsReceived != 1 {
		t.Fatal("post-reset packet not counted")
	}
}

func TestUtilizationHotCenter(t *testing.T) {
	// The paper's Figure 1: under uniform random traffic near saturation,
	// central routers utilize their buffers and links far more than corner
	// routers. This is the observation motivating HeteroNoC.
	n := newMeshNet(t)
	rng := rand.New(rand.NewSource(17))
	for cycle := 0; cycle < 6000; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.04 {
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	act := n.Activity()
	m := topology.NewMesh(8, 8)
	center := (act[m.RouterAt(3, 3)].LinkUtil + act[m.RouterAt(4, 3)].LinkUtil +
		act[m.RouterAt(3, 4)].LinkUtil + act[m.RouterAt(4, 4)].LinkUtil) / 4
	corner := (act[m.RouterAt(0, 0)].LinkUtil + act[m.RouterAt(7, 0)].LinkUtil +
		act[m.RouterAt(0, 7)].LinkUtil + act[m.RouterAt(7, 7)].LinkUtil) / 4
	if center <= corner {
		t.Errorf("center link util %.3f not above corner %.3f", center, corner)
	}
	cBuf := (act[m.RouterAt(3, 3)].BufOccupancy + act[m.RouterAt(4, 4)].BufOccupancy) / 2
	cornBuf := (act[m.RouterAt(0, 0)].BufOccupancy + act[m.RouterAt(7, 7)].BufOccupancy) / 2
	if cBuf <= cornBuf {
		t.Errorf("center buffer occupancy %.3f not above corner %.3f", cBuf, cornBuf)
	}
}

func TestWatchdogDisabledByDefault(t *testing.T) {
	m := topology.NewMesh(4, 4)
	n, err := New(Config{Topo: m, Routing: routing.NewXY(m), Routers: []RouterConfig{{VCs: 2, BufDepth: 2}}, FlitWidthBits: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := n.Step(); err != nil {
			t.Fatalf("idle network reported error: %v", err)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	n := newMeshNet(t)
	for _, p := range []*Packet{
		{Src: -1, Dst: 0, NumFlits: 1},
		{Src: 0, Dst: 64, NumFlits: 1},
		{Src: 0, Dst: 0, NumFlits: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Inject(%+v) did not panic", p)
				}
			}()
			n.Inject(p)
		}()
	}
}

func TestConfigValidation(t *testing.T) {
	m := topology.NewMesh(4, 4)
	bad := []Config{
		{Routing: routing.NewXY(m), Routers: []RouterConfig{{VCs: 1, BufDepth: 1}}, FlitWidthBits: 64},
		{Topo: m, Routers: []RouterConfig{{VCs: 1, BufDepth: 1}}, FlitWidthBits: 64},
		{Topo: m, Routing: routing.NewXY(m), Routers: []RouterConfig{{VCs: 0, BufDepth: 1}}, FlitWidthBits: 64},
		{Topo: m, Routing: routing.NewXY(m), Routers: make([]RouterConfig, 3), FlitWidthBits: 64},
		{Topo: m, Routing: routing.NewXY(m), Routers: []RouterConfig{{VCs: 1, BufDepth: 1}}},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		n := newMeshNet(t)
		rng := rand.New(rand.NewSource(23))
		for cycle := 0; cycle < 1000; cycle++ {
			for src := 0; src < 64; src++ {
				if rng.Float64() < 0.03 {
					n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
				}
			}
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return n.Stats().TotalLatency, n.Stats().PacketsReceived
	}
	l1, p1 := run()
	l2, p2 := run()
	if l1 != l2 || p1 != p2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", l1, p1, l2, p2)
	}
}

func TestPerClassStats(t *testing.T) {
	n := newMeshNet(t)
	for i := 0; i < 30; i++ {
		n.Inject(&Packet{Src: i % 64, Dst: (i + 9) % 64, NumFlits: 1, Class: 1})
		n.Inject(&Packet{Src: (i + 3) % 64, Dst: (i + 40) % 64, NumFlits: 6, Class: 2})
	}
	runUntilQuiesced(t, n, 100000)
	s := n.Stats()
	c1, c2 := s.Class(1), s.Class(2)
	if c1.Packets != 30 || c2.Packets != 30 {
		t.Fatalf("class packets %d/%d, want 30/30", c1.Packets, c2.Packets)
	}
	if c2.Avg() <= c1.Avg() {
		t.Errorf("6-flit class latency %.1f not above 1-flit class %.1f", c2.Avg(), c1.Avg())
	}
	if got := s.Classes(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("classes = %v", got)
	}
	if s.Class(99).Packets != 0 {
		t.Error("unknown class not empty")
	}
}

func TestTracerRecordsPath(t *testing.T) {
	n := newMeshNet(t)
	ft := NewNetworkFlitTracer(n, FlitTracerConfig{})
	n.SetTracer(ft)
	n.Inject(&Packet{Src: 0, Dst: 10, NumFlits: 2}) // (0,0) -> (2,1): E,E,S
	var id uint64
	n.SetOnPacket(func(p *Packet) { id = p.ID })
	runUntilQuiesced(t, n, 500)
	if id == 0 {
		t.Fatal("packet not delivered")
	}
	recs := ft.Records()
	path := tracedPath(recs, id)
	want := []int{0, 1, 2, 10}
	if len(path) != len(want) {
		t.Fatalf("traced path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("traced path %v, want %v", path, want)
		}
	}
	// Last record must be the eject, cycles must be nondecreasing.
	if recs[len(recs)-1].Kind != EvEject {
		t.Error("missing eject record")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Cycle < recs[i-1].Cycle {
			t.Error("records out of order")
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	n := newMeshNet(t)
	rng := rand.New(rand.NewSource(77))
	for cycle := 0; cycle < 2500; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.03 {
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runUntilQuiesced(t, n, 200000)
	s := n.Stats()
	p50, p95, p99 := s.Percentile(0.5), s.Percentile(0.95), s.Percentile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("percentiles not monotone: %v %v %v", p50, p95, p99)
	}
	if p50 <= 0 {
		t.Fatal("p50 zero")
	}
	mean := s.AvgLatency()
	if p99 < mean {
		t.Errorf("p99 %.0f below mean %.1f", p99, mean)
	}
	// Empty stats: percentile must be safe.
	var empty Stats
	if empty.Percentile(0.9) != 0 {
		t.Error("empty percentile not zero")
	}
}
