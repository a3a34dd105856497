package noc

import (
	"testing"

	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// buildContention sets up a 3x3 mesh where two input ports of the center
// router want different outputs, but the port scan order makes the classic
// allocator waste a cycle that the improved SA recovers. We measure the
// aggregate effect instead of a single cycle: under identical adversarial
// traffic, the ImprovedSA router must deliver no less and finish no later.
func runContention(t *testing.T, improved bool) int64 {
	t.Helper()
	m := topology.NewMesh(8, 8)
	n, err := New(Config{
		Topo:    m,
		Routing: routing.NewXY(m),
		Routers: []RouterConfig{{
			VCs: 3, BufDepth: 5, ImprovedSA: improved,
		}},
		WatchdogCycles: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Heavy crossing flows through the center: rows and columns all fire.
	for wave := 0; wave < 40; wave++ {
		for i := 0; i < 8; i++ {
			n.Inject(&Packet{Src: m.RouterAt(0, i), Dst: m.RouterAt(7, i), NumFlits: 6})
			n.Inject(&Packet{Src: m.RouterAt(i, 0), Dst: m.RouterAt(i, 7), NumFlits: 6})
		}
	}
	runUntilQuiesced(t, n, 1000000)
	return n.Cycle()
}

func TestImprovedSANotSlower(t *testing.T) {
	classic := runContention(t, false)
	improved := runContention(t, true)
	if improved > classic {
		t.Errorf("improved SA drained in %d cycles, classic in %d", improved, classic)
	}
}

func TestSplitDatapathMovesTwoFlitsPerInput(t *testing.T) {
	// A single small split-datapath router with a wide output can forward
	// two flits per cycle from one input port (two VCs); the classic
	// router cannot. Measure drain time of two packets sharing a source
	// port toward one wide destination.
	build := func(split bool) int64 {
		m := topology.NewMesh(2, 2)
		// Routers 0 and 1 are both wide (so every link on the path moves
		// two flits per cycle); only the datapath/allocator flexibility
		// differs between the two runs.
		cfgs := []RouterConfig{
			{VCs: 6, BufDepth: 5, Wide: true, SplitDatapath: split},
			{VCs: 6, BufDepth: 5, Wide: true, SplitDatapath: split},
			{VCs: 2, BufDepth: 5, SplitDatapath: split},
			{VCs: 2, BufDepth: 5, SplitDatapath: split},
		}
		n, err := New(Config{
			Topo:           m,
			Routing:        routing.NewXY(m),
			Routers:        cfgs,
			WatchdogCycles: 10000,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Two packets 0->1 on a wide local/link path: with the split
		// datapath and pairing, the shared links carry 2 flits/cycle.
		n.Inject(&Packet{Src: 0, Dst: 1, NumFlits: 8})
		n.Inject(&Packet{Src: 0, Dst: 1, NumFlits: 8})
		runUntilQuiesced(t, n, 2000)
		return n.Cycle()
	}
	withSplit := build(true)
	without := build(false)
	if withSplit >= without {
		t.Errorf("split datapath drained in %d cycles, classic in %d — expected faster", withSplit, without)
	}
}

func TestWideOutputNeverExceedsTwoFlitsPerCycle(t *testing.T) {
	// Conservation audit: on an all-wide network under saturation, each
	// output's flits-sent never exceeds 2x its busy cycles.
	m := topology.NewMesh(4, 4)
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewXY(m),
		Routers:        []RouterConfig{{VCs: 4, BufDepth: 5, Wide: true, SplitDatapath: true}},
		WatchdogCycles: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for wave := 0; wave < 100; wave++ {
		for s := 0; s < 16; s++ {
			n.Inject(&Packet{Src: s, Dst: (s + 5) % 16, NumFlits: 6})
		}
	}
	runUntilQuiesced(t, n, 200000)
	for r := range n.routers {
		for p, op := range n.routers[r].out {
			if op.dead {
				continue
			}
			if op.flitsSent > 2*op.busyCycles {
				t.Fatalf("router %d port %d sent %d flits in %d busy cycles", r, p, op.flitsSent, op.busyCycles)
			}
		}
	}
}
