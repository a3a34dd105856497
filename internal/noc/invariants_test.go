package noc

import (
	"math/rand"
	"strings"
	"testing"

	"heteronoc/internal/fault"
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

// TestCheckInvariantsRefusesCorruptState mutates one field of a mid-run
// network in place, one class of invariant per case, and requires
// CheckInvariants to refuse the result with that class's error; the
// unmutated state must pass. Derived state is rebuilt after the mutation,
// so each refusal comes from the audit of the primary state.
func TestCheckInvariantsRefusesCorruptState(t *testing.T) {
	cases := []struct {
		name   string
		build  func(testing.TB) *Network
		want   string // in the refusal
		mutate func(t *testing.T, n *Network)
	}{
		{"credit-conservation", heteroMidRun, "credits +", func(t *testing.T, n *Network) {
			op := findPort(t, n, func(op *outputPort) bool { return !op.dead && !op.isTerm && inUseVC(op) >= 0 })
			op.credits[inUseVC(op)]++
		}},
		{"dead-port", faultMidRun, "dead port keeps", func(t *testing.T, n *Network) {
			op := findPort(t, n, func(op *outputPort) bool { return op.dead && op.credits != nil })
			op.credits[0] = 1
		}},
		{"event-queue", heteroMidRun, "due at", func(t *testing.T, n *Network) {
			op := findPort(t, n, func(op *outputPort) bool { return op.wire.n > 0 })
			op.wire.front().at = n.cycle + 3
		}},
		{"flit-order", heteroMidRun, "out of order", func(t *testing.T, n *Network) {
			vc := findVC(t, n, func(vc *inVC) bool { return vc.buf.count > 1 && vc.buf.at(0).Pkt == vc.buf.at(1).Pkt })
			*vc.buf.at(0), *vc.buf.at(1) = *vc.buf.at(1), *vc.buf.at(0)
		}},
		{"flit-sequence", heteroMidRun, "flits in the network", func(t *testing.T, n *Network) {
			vc := findVC(t, n, func(vc *inVC) bool { return vc.buf.count > 0 && vc.buf.at(0).Pkt.received > 0 })
			vc.buf.at(0).Pkt.received--
		}},
		{"ni-queue-stream", heteroMidRun, "streams packet", func(t *testing.T, n *Network) {
			for i := range n.nis {
				if st := n.nis[i].streams; len(st) == 2 {
					st[1].vc = st[0].vc
					return
				}
			}
			t.Fatal("no terminal drives two streams")
		}},
		{"packet-fields", heteroMidRun, "terminals", func(t *testing.T, n *Network) {
			vc := findVC(t, n, func(vc *inVC) bool { return vc.buf.count > 0 })
			vc.buf.at(0).Pkt.Dst = len(n.nis)
		}},
		{"round-robin-pointer", heteroMidRun, "round-robin pointer", func(t *testing.T, n *Network) {
			ip := &n.routers[0].in[0]
			ip.rr = len(ip.vcs)
		}},
		{"vc-allocation", heteroMidRun, "downstream VC", func(t *testing.T, n *Network) {
			vc := findVC(t, n, func(vc *inVC) bool { return vc.state == vcActive })
			vc.outVC = -1
		}},
		{"watchdog-fired", heteroMidRun, "last flit move", func(t *testing.T, n *Network) {
			n.lastMove = n.cycle - int64(n.cfg.WatchdogCycles) - 1
		}},
		{"worm-path", heteroMidRun, "on its worm", func(t *testing.T, n *Network) {
			p := findVC(t, n, func(vc *inVC) bool { return vc.buf.count > 0 }).buf.at(0).Pkt
			stray := findVC(t, n, func(vc *inVC) bool { return vc.state == vcIdle && vc.buf.count == 0 })
			stray.state, stray.cur, stray.outPort, stray.class = vcWaitVC, p, 0, 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(t)
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("unmutated state refused: %v", err)
			}
			tc.mutate(t, n)
			n.syncDerived(true)
			if err := n.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corrupt state gave %v, want a refusal naming %q", err, tc.want)
			}
		})
	}
}

// heteroMidRun runs a loaded Diagonal+BL network (wide links, unequal VC
// counts) until some terminal drives two NI streams at once, which only
// a wide injection link allows.
func heteroMidRun(t testing.TB) *Network {
	n := heteroDiagonalNet(t)
	rng := rand.New(rand.NewSource(16))
	for twoStreams := false; n.Cycle() < 30 || !twoStreams; {
		if n.Cycle() > 2000 {
			t.Fatal("no terminal drove two streams")
		}
		for src := 0; src < 64; src++ {
			if rng.Float64() < 0.06 {
				n.Inject(&Packet{Src: src, Dst: rng.Intn(64), NumFlits: 8})
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		for i := range n.nis {
			twoStreams = twoStreams || len(n.nis[i].streams) == 2
		}
	}
	return n
}

// faultMidRun runs a loaded fault-armed 4x4 mesh past a link failure at
// cycle 60, inside a corrupting transient window.
func faultMidRun(t testing.TB) *Network {
	m := topology.NewMesh(4, 4)
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewFaultTable(m, routing.FaultTableConfig{EscapeThreshold: 32}),
		Routers:        []RouterConfig{{VCs: 3, BufDepth: 4}},
		WatchdogCycles: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{}
	plan.FailLink(60, m.RouterAt(1, 1), topology.PortEast)
	plan.AddTransient(40, m.RouterAt(2, 2), topology.PortNorth, 50, true)
	if err := n.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for n.Cycle() < 90 {
		for src := 0; src < 16; src++ {
			if rng.Float64() < 0.08 {
				_ = n.TryInject(&Packet{Src: src, Dst: rng.Intn(16), NumFlits: 4})
			}
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// findPort returns the first router output port or NI injection port
// that satisfies ok.
func findPort(t *testing.T, n *Network, ok func(*outputPort) bool) *outputPort {
	t.Helper()
	for i := range n.nis {
		if ok(&n.nis[i].up) {
			return &n.nis[i].up
		}
	}
	for r := range n.routers {
		for _, op := range n.routers[r].out {
			if ok(op) {
				return op
			}
		}
	}
	t.Fatal("no port in the wanted state")
	return nil
}

// findVC returns the first input VC that satisfies ok.
func findVC(t *testing.T, n *Network, ok func(*inVC) bool) *inVC {
	t.Helper()
	for r := range n.routers {
		for pi := range n.routers[r].in {
			for vi := range n.routers[r].in[pi].vcs {
				if vc := &n.routers[r].in[pi].vcs[vi]; ok(vc) {
					return vc
				}
			}
		}
	}
	t.Fatal("no VC in the wanted state")
	return nil
}

// inUseVC returns a downstream VC of op holding some but not all of its
// credits, or -1.
func inUseVC(op *outputPort) int {
	for v, c := range op.credits {
		if c > 0 && c < op.downDepth {
			return v
		}
	}
	return -1
}
