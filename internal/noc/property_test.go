package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"heteronoc/internal/fault"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// TestZeroLoadLatencyProperty: for any (src, dst, size), a lone packet's
// latency equals the ideal pipeline formula — blocking is exactly zero at
// zero load. This pins every stage of the router pipeline at once.
func TestZeroLoadLatencyProperty(t *testing.T) {
	m := topology.NewMesh(8, 8)
	f := func(a, b, c uint8) bool {
		src, dst := int(a)%64, int(b)%64
		flits := 1 + int(c)%8
		n, err := New(Config{
			Topo:           m,
			Routing:        routing.NewXY(m),
			Routers:        []RouterConfig{{VCs: 3, BufDepth: 5}},
			WatchdogCycles: 5000,
		})
		if err != nil {
			return false
		}
		var done *Packet
		n.SetOnPacket(func(p *Packet) { done = p })
		n.Inject(&Packet{Src: src, Dst: dst, NumFlits: flits})
		for i := 0; i < 300 && !n.Quiesced(); i++ {
			if err := n.Step(); err != nil {
				return false
			}
		}
		if done == nil {
			return false
		}
		total := done.RecvCycle - done.CreateCycle
		queuing := done.InjectCycle - done.CreateCycle
		return total == IdealTransferCycles(done.Hops, flits, done.MinSlots)+queuing
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHopCountProperty: delivered hop counts always equal the X-Y
// distance, for any packet mix on the heterogeneous network.
func TestHopCountProperty(t *testing.T) {
	n := heteroDiagonalNet(t)
	m := topology.NewMesh(8, 8)
	bad := 0
	n.SetOnPacket(func(p *Packet) {
		if p.Hops != m.HopsXY(p.Src, p.Dst) {
			bad++
		}
	})
	f := func(a, b uint8) bool {
		n.Inject(&Packet{Src: int(a) % 64, Dst: int(b) % 64, NumFlits: 6})
		for i := 0; i < 5; i++ {
			if err := n.Step(); err != nil {
				return false
			}
		}
		return bad == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	runUntilQuiesced(t, n, 100000)
	if bad != 0 {
		t.Fatalf("%d packets took non-minimal paths", bad)
	}
}

// TestFaultPlanPathsAvoidDeadLinks is the fault-injection property test:
// for every seeded fault plan (all failures striking at cycle 1, before
// any flit moves), every packet the network delivers must have traversed
// live links only, and every transfer to a reachable destination must
// reach the application exactly once — rerouting may detour but never
// crosses a dead link, and recovery never duplicates or loses a message.
func TestFaultPlanPathsAvoidDeadLinks(t *testing.T) {
	m := topology.NewMesh(8, 8)
	for seed := int64(1); seed <= 6; seed++ {
		plan := fault.Generate(m, seed, fault.GenConfig{
			Links: 2 + int(seed)%5, Routers: int(seed) % 2,
			MaxCycle: 1, KeepConnected: true,
		})
		n := faultMeshNet(t, plan)
		ft := NewNetworkFlitTracer(n, FlitTracerConfig{MacroOnly: true})
		n.SetTracer(ft)
		rel := NewReliable(n, ReliableConfig{Timeout: 256, MaxRetries: 8})
		delivered := map[xferKey]int{}
		var deliveredIDs []uint64
		rel.SetOnDeliver(func(x *Transfer, p *Packet) {
			delivered[key(x)]++
			deliveredIDs = append(deliveredIDs, p.ID)
		})
		rel.SetOnFail(func(x *Transfer, err error) {
			t.Errorf("seed %d: transfer %d->%d abandoned: %v", seed, x.Src, x.Dst, err)
		})
		rng := rand.New(rand.NewSource(seed * 101))
		sent := 0
		for cycle := 0; cycle < 600; cycle++ {
			for src := 0; src < 64; src++ {
				if rng.Float64() < 0.01 {
					if _, err := rel.Send(src, rng.Intn(64), 6, 0, nil); err == nil {
						sent++
					}
				}
			}
			if err := rel.Step(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for i := 0; !rel.Quiesced() && i < 1<<20; i++ {
			if err := rel.Step(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if !rel.Quiesced() {
			t.Fatalf("seed %d: did not quiesce", seed)
		}
		// Exactly once: KeepConnected means every accepted transfer has a
		// live destination throughout, so all of them must arrive.
		if len(delivered) != sent {
			t.Fatalf("seed %d: %d of %d transfers delivered", seed, len(delivered), sent)
		}
		for k, cnt := range delivered {
			if cnt != 1 {
				t.Errorf("seed %d: transfer %v delivered %d times", seed, k, cnt)
			}
		}
		// Path property: every delivered copy's traced route crosses live
		// links only (the failures all predate injection, so "live" is
		// unambiguous for the whole run).
		if ft.Dropped() != 0 {
			t.Fatalf("seed %d: tracer dropped %d records; paths would be partial", seed, ft.Dropped())
		}
		ls := n.LinkState()
		recs := ft.Records()
		for _, id := range deliveredIDs {
			path := tracedPath(recs, id)
			for i := 1; i < len(path); i++ {
				p := -1
				for q := 0; q < m.Radix(path[i-1]); q++ {
					if link, ok := m.Neighbor(path[i-1], q); ok && link.Router == path[i] {
						p = q
						break
					}
				}
				if p < 0 {
					t.Fatalf("seed %d: packet %d path %v jumps non-adjacent routers", seed, id, path)
				}
				if !ls.Up(path[i-1], p) {
					t.Fatalf("seed %d: packet %d path %v crosses dead link %d.%d",
						seed, id, path, path[i-1], p)
				}
			}
		}
	}
}

// TestRingProperty exercises the flit FIFO against a model queue.
func TestRingProperty(t *testing.T) {
	r := newRing(5)
	var model []int32
	seq := int32(0)
	f := func(op uint8) bool {
		if op%2 == 0 && !r.full() {
			p := &Packet{NumFlits: 1}
			r.push(Flit{Pkt: p, Seq: seq})
			model = append(model, seq)
			seq++
		} else if r.len() > 0 {
			got := r.pop()
			want := model[0]
			model = model[1:]
			if got.Seq != want {
				return false
			}
		}
		if r.len() != len(model) {
			return false
		}
		if head := r.peek(); head != nil && head.Seq != model[0] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRingOverflowPanics pins the defensive capacity check.
func TestRingOverflowPanics(t *testing.T) {
	r := newRing(2)
	p := &Packet{}
	r.push(Flit{Pkt: p})
	r.push(Flit{Pkt: p})
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	r.push(Flit{Pkt: p})
}

// TestPopEmptyPanics pins the defensive underflow check.
func TestPopEmptyPanics(t *testing.T) {
	r := newRing(2)
	defer func() {
		if recover() == nil {
			t.Error("underflow did not panic")
		}
	}()
	r.pop()
}
