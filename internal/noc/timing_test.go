package noc

import (
	"testing"
)

// TestPipelineTimingDocumentation pins the cycle-exact schedule of a
// two-hop journey, doubling as executable documentation of the router
// pipeline:
//
//	cycle 1  head flit leaves the NI (inject event)
//	cycle 2  flit written into router 0's input buffer
//	cycle 3  stage 1 (RC/VA/SA) + stage 2 latch at router 0
//	cycle 5  link delivers into router 1 (hop event)
//	cycle 6  stage 1 + 2 at router 1
//	cycle 8  link delivers into router 2 (hop event)
//	cycle 9  stage 1 + 2 at router 2 (ejection port)
//	cycle 11 tail consumed at the terminal (eject event)
func TestPipelineTimingDocumentation(t *testing.T) {
	n := newMeshNet(t)
	ft := NewNetworkFlitTracer(n, FlitTracerConfig{MacroOnly: true})
	n.SetTracer(ft)
	n.Inject(&Packet{Src: 0, Dst: 2, NumFlits: 1}) // routers 0 -> 1 -> 2
	runUntilQuiesced(t, n, 100)
	want := []struct {
		kind  EventKind
		cycle int64
	}{
		{EvInject, 1},
		{EvHop, 5},
		{EvHop, 8},
		{EvEject, 11},
	}
	recs := ft.Records()
	if len(recs) != len(want) {
		t.Fatalf("records %v", recs)
	}
	for i, w := range want {
		e := recs[i]
		if e.Kind != w.kind || e.Cycle != w.cycle {
			t.Fatalf("record %d = %s@%d, want %s@%d\nall: %v", i, e.Kind, e.Cycle, w.kind, w.cycle, recs)
		}
	}
}
