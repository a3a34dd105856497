package cmp

import (
	"strings"
	"testing"

	"heteronoc/internal/cmp/coherence"
	"heteronoc/internal/core"
)

// collectingDispatch records the order messages reach dispatch by swapping
// in a probe via the public surfaces: we drive deliverOrdered directly.
func newIdleSystem(t *testing.T) *System {
	t.Helper()
	s, err := New(Config{
		Layout: core.NewBaseline(8, 8),
		Traces: benchTraces(t, "vips", 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReorderBufferReordersPerPair(t *testing.T) {
	s := newIdleSystem(t)
	// Deliver seq 1 before seq 0 for the pair (3, 5): the first must park,
	// then both dispatch in order when seq 0 arrives. WBAck is a safe
	// no-op message to observe (it only touches the wb map).
	// Use WBAck messages: harmless to an empty L1.
	m0 := coherence.Msg{Type: coherence.WBAck, Line: 1, Src: 3, Dst: 5, Seq: 0}
	m1 := coherence.Msg{Type: coherence.WBAck, Line: 2, Src: 3, Dst: 5, Seq: 1}
	s.deliverOrdered(m1)
	if len(s.parked[pairKey{3, 5}]) != 1 {
		t.Fatal("early message not parked")
	}
	s.deliverOrdered(m0)
	if len(s.parked[pairKey{3, 5}]) != 0 {
		t.Fatal("parked message not drained")
	}
	if s.seqIn[pairKey{3, 5}] != 2 {
		t.Fatalf("in-sequence counter %d, want 2", s.seqIn[pairKey{3, 5}])
	}
}

func TestReorderBufferIndependentPairs(t *testing.T) {
	s := newIdleSystem(t)
	// Ordering is per pair: pair (1,2) at seq 0 must dispatch even while
	// pair (3,2) is waiting for its seq 0.
	s.deliverOrdered(coherence.Msg{Type: coherence.WBAck, Src: 3, Dst: 2, Seq: 1})
	s.deliverOrdered(coherence.Msg{Type: coherence.WBAck, Src: 1, Dst: 2, Seq: 0})
	if s.seqIn[pairKey{1, 2}] != 1 {
		t.Error("independent pair blocked")
	}
	if s.seqIn[pairKey{3, 2}] != 0 {
		t.Error("out-of-order message consumed early")
	}
}

func TestSendAssignsMonotonicSeqs(t *testing.T) {
	s := newIdleSystem(t)
	for i := 0; i < 5; i++ {
		s.Send(coherence.Msg{Type: coherence.WBAck, Src: 7, Dst: 9}, 0)
	}
	if got := s.seqOut[pairKey{7, 9}]; got != 5 {
		t.Fatalf("seqOut = %d, want 5", got)
	}
	// Messages sit in the delay queue until their time matures.
	if len(s.delayQ) != 5 {
		t.Fatalf("delay queue %d, want 5", len(s.delayQ))
	}
}

func TestDataFlitsByMessageClass(t *testing.T) {
	s := newIdleSystem(t)
	if got := s.dataFlits(coherence.Msg{Type: coherence.GetS}); got != 1 {
		t.Errorf("GetS flits = %d, want 1 (address packet)", got)
	}
	if got := s.dataFlits(coherence.Msg{Type: coherence.Data}); got != 6 {
		t.Errorf("Data flits = %d, want 6 (cache-line packet)", got)
	}
	if got := s.dataFlits(coherence.Msg{Type: coherence.MemWrite}); got != 6 {
		t.Errorf("MemWrite flits = %d, want 6", got)
	}
	if got := s.dataFlits(coherence.Msg{Type: coherence.InvAck}); got != 1 {
		t.Errorf("InvAck flits = %d, want 1", got)
	}
}

func TestLocalMessagesBypassNetwork(t *testing.T) {
	s := newIdleSystem(t)
	// A same-tile message must never enter the NoC. Drive the transport
	// directly (stepping the whole system would let the cores generate
	// their own traffic and hide the check).
	s.Send(coherence.Msg{Type: coherence.WBAck, Src: 4, Dst: 4}, 0)
	for i := 0; i < 10; i++ {
		s.now++
		s.flush()
	}
	if len(s.delayQ) != 0 {
		t.Error("local message stuck in the delay queue")
	}
	if got := s.NetStats().PacketsInjected; got != 0 {
		t.Errorf("local message entered the network (%d packets)", got)
	}
	if s.seqIn[pairKey{4, 4}] != 1 {
		t.Error("local message was not dispatched")
	}
}

func TestWarmupLeavesHierarchyConsistent(t *testing.T) {
	s := newIdleSystem(t)
	mustWarm(t, s, 8000)
	// After warmup: no in-flight warm messages, caches populated, stats
	// clean, and the timing simulation starts healthy.
	if len(s.warmQ) != 0 {
		t.Fatal("warm queue not drained")
	}
	occ := 0
	for _, tile := range s.Tiles {
		occ += tile.Home.L2().Occupancy()
		if tile.L1.Outstanding() != 0 {
			t.Fatal("outstanding MSHRs after warmup")
		}
	}
	if occ == 0 {
		t.Fatal("warmup populated nothing")
	}
	if s.NetStats().PacketsInjected != 0 {
		t.Error("warmup leaked packets into the network")
	}
	if err := s.Run(300); err != nil {
		t.Fatal(err)
	}
	if s.AvgIPC() <= 0 {
		t.Error("no progress after warmup")
	}
}

func TestWarmupImprovesHitRate(t *testing.T) {
	run := func(warm int) float64 {
		s := newIdleSystem(t)
		if warm > 0 {
			mustWarm(t, s, warm)
		}
		if err := s.Run(2500); err != nil {
			t.Fatal(err)
		}
		var hits, total int64
		for _, tile := range s.Tiles {
			hits += tile.Home.L2Hits
			total += tile.Home.L2Hits + tile.Home.L2Misses
		}
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	}
	cold, warm := run(0), run(20000)
	if warm <= cold {
		t.Errorf("warmup did not improve L2 hit rate: cold %.3f warm %.3f", cold, warm)
	}
}

func TestSnapshotReport(t *testing.T) {
	s := newIdleSystem(t)
	mustWarm(t, s, 10000)
	if err := s.Run(1500); err != nil {
		t.Fatal(err)
	}
	r := s.Snapshot()
	if r.AvgIPC <= 0 || r.Cycles != 1500 {
		t.Fatalf("report basics wrong: %+v", r)
	}
	if r.L1HitRate <= 0 || r.L1HitRate > 1 {
		t.Errorf("L1 hit rate %v", r.L1HitRate)
	}
	if r.L2HitRate <= 0 || r.L2HitRate > 1 {
		t.Errorf("L2 hit rate %v", r.L2HitRate)
	}
	if r.NetPackets <= 0 {
		t.Error("no network packets in report")
	}
	out := r.String()
	for _, want := range []string{"avg IPC", "L1", "DRAM", "network", "miss round trip"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
