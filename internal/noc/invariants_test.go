package noc

import (
	"math/rand"
	"strings"
	"testing"

	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// TestCreditConservationUnderLoad audits the conservation invariants every
// few cycles while a loaded heterogeneous network runs — the strongest
// whole-simulator property check we have.
func TestCreditConservationUnderLoad(t *testing.T) {
	n := heteroDiagonalNet(t)
	rng := rand.New(rand.NewSource(99))
	for cycle := 0; cycle < 4000; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.04 {
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		if cycle%25 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	runUntilQuiesced(t, n, 200000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestCreditConservationOnTorus(t *testing.T) {
	m := topology.NewTorus(8, 8)
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewTorusXY(m),
		Routers:        []RouterConfig{{VCs: 3, BufDepth: 5}},
		WatchdogCycles: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for cycle := 0; cycle < 2500; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.05 {
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		if cycle%50 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
}

// TestFlitConservation checks that every injected flit is eventually
// consumed exactly once across a randomized workload mix of packet sizes.
func TestFlitConservation(t *testing.T) {
	n := newMeshNet(t)
	rng := rand.New(rand.NewSource(123))
	var injected, sizes int64
	n.SetOnPacket(func(p *Packet) { sizes += int64(p.NumFlits) })
	for cycle := 0; cycle < 2500; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.03 {
				f := 1 + rng.Intn(8)
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: f})
				injected += int64(f)
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runUntilQuiesced(t, n, 300000)
	if sizes != injected {
		t.Fatalf("consumed %d flits of %d injected", sizes, injected)
	}
	if got := n.Stats().FlitsReceived; got != injected {
		t.Fatalf("stats flits %d, want %d", got, injected)
	}
	if n.InFlight() != 0 {
		t.Fatalf("%d flits still in flight after drain", n.InFlight())
	}
}

func TestDumpRouterShowsOccupancy(t *testing.T) {
	n := newMeshNet(t)
	n.Inject(&Packet{Src: 0, Dst: 7, NumFlits: 6})
	for i := 0; i < 6; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	out := n.DumpRouter(0)
	if !strings.Contains(out, "router 0") {
		t.Fatalf("dump:\n%s", out)
	}
	if !strings.Contains(out, "flits") {
		t.Fatalf("dump shows no occupancy while a packet transits:\n%s", out)
	}
	runUntilQuiesced(t, n, 500)
	// Drained: dump shows only the header.
	out = n.DumpRouter(0)
	if strings.Contains(out, "head=") {
		t.Fatalf("dump shows residue after drain:\n%s", out)
	}
}
