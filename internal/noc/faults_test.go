package noc

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"heteronoc/internal/fault"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// faultMeshNet builds an 8x8 mesh with fault-aware table routing and the
// given plan armed (nil plan = armed with an empty schedule).
func faultMeshNet(t testing.TB, plan *fault.Plan) *Network {
	t.Helper()
	m := topology.NewMesh(8, 8)
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewFaultTable(m, routing.FaultTableConfig{EscapeThreshold: 32}),
		Routers:        []RouterConfig{{VCs: 3, BufDepth: 5}},
		WatchdogCycles: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		plan = &fault.Plan{}
	}
	if err := n.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	return n
}

// portToward returns the port of router a that faces adjacent router b.
func portToward(t *testing.T, m *topology.Mesh, a, b int) int {
	t.Helper()
	for p := 0; p < m.Radix(a); p++ {
		if link, ok := m.Neighbor(a, p); ok && link.Router == b {
			return p
		}
	}
	t.Fatalf("routers %d and %d are not adjacent", a, b)
	return -1
}

// TestEmptyPlanMatchesUnarmedRun pins the acceptance criterion that arming
// fault machinery without injecting any fault leaves behavior bit-identical:
// same fingerprint as a run with no plan armed at all (the checksum path and
// the armed-network bookkeeping must be invisible).
func TestEmptyPlanMatchesUnarmedRun(t *testing.T) {
	run := func(arm bool) uint64 {
		m := topology.NewMesh(8, 8)
		n, err := New(Config{
			Topo:           m,
			Routing:        routing.NewFaultTable(m, routing.FaultTableConfig{}),
			Routers:        []RouterConfig{{VCs: 3, BufDepth: 5}},
			WatchdogCycles: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			if err := n.SetFaultPlan(&fault.Plan{}); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(41))
		for cycle := 0; cycle < 1500; cycle++ {
			for src := 0; src < 64; src++ {
				if rng.Float64() < 0.02 {
					n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
				}
			}
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
		runUntilQuiesced(t, n, 100000)
		return n.Fingerprint()
	}
	if armed, bare := run(true), run(false); armed != bare {
		t.Errorf("empty armed plan changed the fingerprint: %x vs %x", armed, bare)
	}
}

func TestPermanentLinkFailureReroutesOrDrops(t *testing.T) {
	m := topology.NewMesh(8, 8)
	plan := &fault.Plan{}
	// Kill four central links mid-run while traffic is in flight.
	plan.FailLink(600, m.RouterAt(3, 3), topology.PortEast)
	plan.FailLink(600, m.RouterAt(4, 4), topology.PortNorth)
	plan.FailLink(900, m.RouterAt(2, 5), topology.PortEast)
	plan.FailLink(900, m.RouterAt(5, 2), topology.PortSouth)
	n := faultMeshNet(t, plan)
	delivered := map[uint64]bool{}
	dropped := map[uint64]DropReason{}
	n.SetOnPacket(func(p *Packet) {
		if delivered[p.ID] {
			t.Errorf("packet %d delivered twice", p.ID)
		}
		delivered[p.ID] = true
	})
	n.SetOnDrop(func(p *Packet, why DropReason) {
		if _, dup := dropped[p.ID]; dup {
			t.Errorf("packet %d dropped twice", p.ID)
		}
		dropped[p.ID] = why
	})
	rng := rand.New(rand.NewSource(97))
	injected := 0
	for cycle := 0; cycle < 2000; cycle++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.03 {
				if err := n.TryInject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6}); err == nil {
					injected++
				}
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		if cycle%250 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("invariants violated at cycle %d: %v", cycle, err)
			}
		}
	}
	runUntilQuiesced(t, n, 200000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after quiesce: %v", err)
	}
	if len(delivered)+len(dropped) != injected {
		t.Fatalf("delivered %d + dropped %d != injected %d", len(delivered), len(dropped), injected)
	}
	for id := range delivered {
		if _, both := dropped[id]; both {
			t.Errorf("packet %d both delivered and dropped", id)
		}
	}
	if len(dropped) == 0 {
		t.Error("central link failures under load lost no packets — faults did not strike")
	}
	if n.Stats().FlitsLost == 0 {
		t.Error("FlitsLost = 0 after mid-stream link failures")
	}
	// The mesh stays connected (4 central cuts cannot partition it), so
	// every post-failure packet must still have been deliverable.
	if !n.LinkState().Connected() {
		t.Fatal("test plan unexpectedly disconnected the mesh")
	}
}

func TestRouterFailureKillsTerminal(t *testing.T) {
	m := topology.NewMesh(8, 8)
	victim := m.RouterAt(2, 2)
	plan := (&fault.Plan{}).FailRouter(5, victim)
	n := faultMeshNet(t, plan)
	for i := 0; i < 10; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.TryInject(&Packet{Src: victim, Dst: 0, NumFlits: 1}); !errors.Is(err, ErrTerminalDown) {
		t.Errorf("inject from dead terminal: %v, want ErrTerminalDown", err)
	}
	if err := n.TryInject(&Packet{Src: 0, Dst: victim, NumFlits: 1}); !errors.Is(err, ErrTerminalDown) {
		t.Errorf("inject to dead terminal: %v, want ErrTerminalDown", err)
	}
	// Everyone else still communicates.
	got := 0
	n.SetOnPacket(func(p *Packet) { got++ })
	if err := n.TryInject(&Packet{Src: 0, Dst: 63, NumFlits: 6}); err != nil {
		t.Fatal(err)
	}
	runUntilQuiesced(t, n, 1000)
	if got != 1 {
		t.Fatalf("post-failure packet not delivered")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTryInjectRefusesSeveredDestination(t *testing.T) {
	// Cut corner router 0 off (fail both its links) without killing it.
	plan := (&fault.Plan{}).
		FailLink(5, 0, topology.PortEast).
		FailLink(5, 0, topology.PortSouth)
	n := faultMeshNet(t, plan)
	for i := 0; i < 10; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	err := n.TryInject(&Packet{Src: 63, Dst: 0, NumFlits: 1})
	if !errors.Is(err, routing.ErrUnreachable) {
		t.Errorf("inject to severed terminal: %v, want ErrUnreachable", err)
	}
	err = n.TryInject(&Packet{Src: 0, Dst: 63, NumFlits: 1})
	if !errors.Is(err, routing.ErrUnreachable) {
		t.Errorf("inject from severed terminal: %v, want ErrUnreachable", err)
	}
	// The severed terminal can still talk to itself.
	if err := n.TryInject(&Packet{Src: 0, Dst: 0, NumFlits: 1}); err != nil {
		t.Errorf("severed terminal self-send refused: %v", err)
	}
	runUntilQuiesced(t, n, 1000)
}

func TestTransientWindowDropsFlits(t *testing.T) {
	m := topology.NewMesh(8, 8)
	// Open a long drop window on router 0's east link, the first hop of
	// the 0->63 shortest path, before the packet reaches it.
	plan := (&fault.Plan{}).AddTransient(1, 0, topology.PortEast, 300, false)
	n := faultMeshNet(t, plan)
	var why DropReason
	n.SetOnDrop(func(p *Packet, r DropReason) { why = r })
	delivered := false
	n.SetOnPacket(func(p *Packet) { delivered = true })
	if err := n.TryInject(&Packet{Src: 0, Dst: 63, NumFlits: 6}); err != nil {
		t.Fatal(err)
	}
	_ = portToward(t, m, 0, 1) // sanity: the east link exists
	runUntilQuiesced(t, n, 5000)
	if delivered {
		t.Fatal("packet crossed a fully dropped window")
	}
	if why != DropTransient {
		t.Fatalf("drop reason %v, want transient-drop", why)
	}
	if n.Stats().FlitsDroppedFault == 0 {
		t.Error("FlitsDroppedFault = 0")
	}
	if n.Stats().FlitsCorrupted != 0 {
		t.Error("drop window counted corruptions")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTransientCorruptionCaughtByChecksum(t *testing.T) {
	plan := (&fault.Plan{}).AddTransient(1, 0, topology.PortEast, 300, true)
	n := faultMeshNet(t, plan)
	var why DropReason
	n.SetOnDrop(func(p *Packet, r DropReason) { why = r })
	if err := n.TryInject(&Packet{Src: 0, Dst: 63, NumFlits: 6}); err != nil {
		t.Fatal(err)
	}
	runUntilQuiesced(t, n, 5000)
	if why != DropCorrupt {
		t.Fatalf("drop reason %v, want checksum-drop", why)
	}
	if n.Stats().FlitsCorrupted == 0 {
		t.Error("FlitsCorrupted = 0 under a corrupting window")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTransientWindowExpires(t *testing.T) {
	// A short window that ends before the packet is sent must be harmless.
	plan := (&fault.Plan{}).AddTransient(1, 0, topology.PortEast, 3, false)
	n := faultMeshNet(t, plan)
	for i := 0; i < 20; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	delivered := false
	n.SetOnPacket(func(p *Packet) { delivered = true })
	if err := n.TryInject(&Packet{Src: 0, Dst: 63, NumFlits: 6}); err != nil {
		t.Fatal(err)
	}
	runUntilQuiesced(t, n, 5000)
	if !delivered {
		t.Fatal("packet lost after the transient window closed")
	}
}

// TestFaultRunsAreDeterministic pins the tentpole's reproducibility claim:
// identical plans and identical seeded traffic give bit-identical
// fingerprints, fault counters included.
func TestFaultRunsAreDeterministic(t *testing.T) {
	m := topology.NewMesh(8, 8)
	run := func() uint64 {
		plan := fault.Generate(m, 77, fault.GenConfig{
			Links: 3, Transients: 4, MaxCycle: 800, KeepConnected: true,
		})
		n := faultMeshNet(t, plan)
		rng := rand.New(rand.NewSource(19))
		for cycle := 0; cycle < 1500; cycle++ {
			for src := 0; src < 64; src++ {
				if rng.Float64() < 0.02 {
					_ = n.TryInject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 6})
				}
			}
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
		runUntilQuiesced(t, n, 200000)
		return n.Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("fault run not reproducible: %x vs %x", a, b)
	}
}

// TestWatchdogErrorDumpsStalledRouters pins the diagnosability requirement:
// when the deadlock watchdog fires, the error must carry DumpRouter output
// for the routers holding the stalled flits, so the report identifies the
// cycle instead of just announcing it.
func TestWatchdogErrorDumpsStalledRouters(t *testing.T) {
	m := topology.NewMesh(2, 2)
	n, err := New(Config{
		Topo:           m,
		Routing:        cyclicRouting{m},
		Routers:        []RouterConfig{{VCs: 1, BufDepth: 2}},
		WatchdogCycles: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2]int{{0, 3}, {1, 2}, {3, 0}, {2, 1}} {
		n.Inject(&Packet{Src: f[0], Dst: f[1], NumFlits: 8})
	}
	var werr error
	for i := 0; i < 1000 && werr == nil; i++ {
		werr = n.Step()
	}
	if werr == nil {
		t.Fatal("engineered turn cycle did not trip the watchdog")
	}
	msg := werr.Error()
	if !strings.Contains(msg, "deadlock watchdog") {
		t.Fatalf("error does not name the watchdog: %v", werr)
	}
	// The dump must include per-router state lines for stalled routers.
	if !strings.Contains(msg, "router 0 (VCs=") || !strings.Contains(msg, "in[") {
		t.Errorf("watchdog error lacks the stalled-router dump:\n%s", msg)
	}
	if !strings.Contains(msg, "flits, ") {
		t.Errorf("dump lines missing VC occupancy:\n%s", msg)
	}
}
