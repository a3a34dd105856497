package noc

import (
	"math/rand"
	"strings"
	"testing"

	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// cyclicRouting is an adversarial algorithm whose four flows form the
// classic turn cycle on a 2x2 mesh (E->S, S->W, W->N, N->E), which must
// deadlock a single-VC wormhole network. It exists to prove the watchdog
// detects real deadlocks rather than merely timing out idle networks.
type cyclicRouting struct{ m *topology.Mesh }

func (c cyclicRouting) Name() string                  { return "cyclic(adversarial)" }
func (c cyclicRouting) NumVCClasses() int             { return 1 }
func (c cyclicRouting) InitialClass(src, dst int) int { return 0 }
func (c cyclicRouting) ClassVCs(_, n int) (int, int)  { return 0, n }
func (c cyclicRouting) NextHop(r, src, dst, cl int) Decision {
	// Router grid: 0 1 / 2 3. Flows: 0->3 goes E(1) then S(3);
	// 1->2 goes S(3) then W(2); 3->0 goes W(2) then N(0); 2->1 goes N(0)
	// then E(1). Every hop waits on the next link of the cycle.
	type hop = Decision
	routes := map[[2]int]int{
		{0, 3}: topology.PortEast, {1, 3}: topology.PortSouth,
		{1, 2}: topology.PortSouth, {3, 2}: topology.PortWest,
		{3, 0}: topology.PortWest, {2, 0}: topology.PortNorth,
		{2, 1}: topology.PortNorth, {0, 1}: topology.PortEast,
	}
	dstR, dstP := c.m.TerminalRouter(dst)
	if r == dstR {
		return hop{OutPort: dstP}
	}
	if p, ok := routes[[2]int{r, dst}]; ok {
		return hop{OutPort: p}
	}
	// Fallback (unused by the test flows).
	return NewXYForTest(c.m).NextHop(r, src, dst, cl)
}

// NewXYForTest re-exports routing.NewXY for the adversarial fallback.
func NewXYForTest(m *topology.Mesh) interface {
	NextHop(r, src, dst, cl int) Decision
} {
	return xyAdapter{routing.NewXY(m)}
}

type xyAdapter struct{ alg *routing.XY }

func (a xyAdapter) NextHop(r, src, dst, cl int) Decision {
	return a.alg.NextHop(r, src, dst, cl)
}

// Decision aliases routing.Decision so the adversarial algorithm can
// implement routing.Algorithm from inside this package's tests.
type Decision = routing.Decision

func TestWatchdogDetectsInjectedDeadlock(t *testing.T) {
	m := topology.NewMesh(2, 2)
	n, err := New(Config{
		Topo:           m,
		Routing:        cyclicRouting{m},
		Routers:        []RouterConfig{{VCs: 1, BufDepth: 2}},
		WatchdogCycles: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Long packets on all four cyclic flows: each head acquires its first
	// link while its body still occupies the previous one; the four flows
	// wait on each other forever.
	for _, f := range [][2]int{{0, 3}, {1, 2}, {3, 0}, {2, 1}} {
		for k := 0; k < 4; k++ {
			n.Inject(&Packet{Src: f[0], Dst: f[1], NumFlits: 8})
		}
	}
	var gotErr error
	for i := 0; i < 5000; i++ {
		if err := n.Step(); err != nil {
			gotErr = err
			break
		}
	}
	if gotErr == nil {
		t.Fatal("watchdog did not fire on a genuine routing deadlock")
	}
	if !strings.Contains(gotErr.Error(), "deadlock watchdog") {
		t.Fatalf("unexpected error: %v", gotErr)
	}
}

func TestEscapeVCsEngageUnderTablePressure(t *testing.T) {
	// Table-routed zig-zag paths with a tiny escape threshold: under heavy
	// contention some packets must divert to the escape network, and all
	// of them must still arrive.
	m := topology.NewMesh(8, 8)
	big := make([]bool, 64)
	routers := make([]RouterConfig, 64)
	for r := range routers {
		routers[r] = RouterConfig{VCs: 2, BufDepth: 5, SplitDatapath: true}
	}
	for i := 0; i < 8; i++ {
		for _, r := range []int{m.RouterAt(i, i), m.RouterAt(7-i, i)} {
			big[r] = true
			routers[r] = RouterConfig{VCs: 6, BufDepth: 5, Wide: true, SplitDatapath: true}
		}
	}
	alg := routing.NewTableXY(m, routing.TableXYConfig{
		Flagged:         []int{0, 7, 56, 63},
		Big:             big,
		EscapeThreshold: 4, // aggressive, to force escapes
	})
	n, err := New(Config{Topo: m, Routing: alg, Routers: routers, WatchdogCycles: 50000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	want, got := 0, 0
	n.SetOnPacket(func(p *Packet) { got++ })
	for cycle := 0; cycle < 3000; cycle++ {
		for _, lc := range []int{0, 7, 56, 63} {
			if rng.Float64() < 0.5 {
				n.Inject(&Packet{Src: lc, Dst: rng.Intn(64), NumFlits: 6})
				want++
			}
		}
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.04 {
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
				want++
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runUntilQuiesced(t, n, 500000)
	if got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
	if n.Stats().Escapes == 0 {
		t.Error("no escapes despite a 4-cycle threshold under heavy load")
	}
}
