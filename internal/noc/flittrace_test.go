package noc

import (
	"bytes"
	"runtime"
	"testing"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/obs"
)

func TestCollectingTracerFilterZero(t *testing.T) {
	// Packet ID 0 must be filterable: the switch is explicit, not a
	// zero-value sentinel.
	c := &CollectingTracer{Filter: true, Only: 0}
	c.PacketEvent(Event{Kind: EvInject, Packet: 0, Router: 1})
	c.PacketEvent(Event{Kind: EvInject, Packet: 7, Router: 2})
	if len(c.Events) != 1 || c.Events[0].Packet != 0 {
		t.Fatalf("filter for packet 0 kept %v", c.Events)
	}
	// And the zero value (Filter false) collects everything.
	all := &CollectingTracer{}
	all.PacketEvent(Event{Kind: EvInject, Packet: 0})
	all.PacketEvent(Event{Kind: EvInject, Packet: 7})
	if len(all.Events) != 2 {
		t.Fatalf("unfiltered tracer kept %d events, want 2", len(all.Events))
	}
}

func TestCollectingTracerPathOfAndDump(t *testing.T) {
	c := &CollectingTracer{}
	for _, e := range []Event{
		{Cycle: 1, Kind: EvInject, Packet: 5, Router: 0},
		{Cycle: 4, Kind: EvHop, Packet: 5, Router: 1},
		{Cycle: 5, Kind: EvHop, Packet: 9, Router: 3}, // other packet
		{Cycle: 7, Kind: EvHop, Packet: 5, Router: 2},
		{Cycle: 9, Kind: EvEject, Packet: 5, Router: -1},
	} {
		c.PacketEvent(e)
	}
	path := c.PathOf(5)
	want := []int{0, 1, 2}
	if len(path) != len(want) {
		t.Fatalf("PathOf = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathOf = %v, want %v", path, want)
		}
	}
	dump := c.Dump(5)
	for _, sub := range []string{"inject", "hop", "eject"} {
		if !bytes.Contains([]byte(dump), []byte(sub)) {
			t.Errorf("Dump missing %q:\n%s", sub, dump)
		}
	}
	if c.Dump(42) != "" {
		t.Error("Dump of unknown packet not empty")
	}
}

// tracedMeshRun drives a loaded mesh with ft installed and returns the
// network.
func tracedMeshRun(t testing.TB, ft *FlitTracer) *Network {
	t.Helper()
	n := newMeshNet(t)
	n.SetTracer(ft)
	for i := 0; i < 40; i++ {
		n.Inject(&Packet{Src: i % 64, Dst: (i*17 + 5) % 64, NumFlits: 4})
	}
	runUntilQuiesced(t, n, 10000)
	return n
}

func TestFlitTracerCapturesDetail(t *testing.T) {
	ft := NewFlitTracer(64, FlitTracerConfig{})
	tracedMeshRun(t, ft)
	recs := ft.Records()
	if len(recs) == 0 {
		t.Fatal("no records captured")
	}
	seen := map[EventKind]int{}
	for _, r := range recs {
		seen[r.Kind]++
	}
	for _, k := range []EventKind{EvInject, EvHop, EvEject, EvVCAlloc, EvSwitchAlloc} {
		if seen[k] == 0 {
			t.Errorf("no %v records (saw %v)", k, seen)
		}
	}
	// Capture order: seq strictly increasing implies cycles nondecreasing.
	for i := 1; i < len(recs); i++ {
		if recs[i].Cycle < recs[i-1].Cycle {
			t.Fatal("records out of capture order")
		}
	}
}

func TestFlitTracerMacroOnly(t *testing.T) {
	ft := NewFlitTracer(64, FlitTracerConfig{MacroOnly: true})
	tracedMeshRun(t, ft)
	for _, r := range ft.Records() {
		switch r.Kind {
		case EvVCAlloc, EvSwitchAlloc, EvCreditStall:
			t.Fatalf("macro-only tracer captured %v", r.Kind)
		}
	}
}

func TestFlitTracerRingBound(t *testing.T) {
	const per = 8
	ft := NewFlitTracer(64, FlitTracerConfig{PerRouter: per})
	tracedMeshRun(t, ft)
	if got, max := ft.Len(), (64+1)*per; got > max {
		t.Fatalf("tracer holds %d records, cap is %d", got, max)
	}
	if ft.Dropped() == 0 {
		t.Fatal("tiny rings dropped nothing under load")
	}
}

func TestFlitTraceBinaryRoundTrip(t *testing.T) {
	ft := NewFlitTracer(64, FlitTracerConfig{})
	tracedMeshRun(t, ft)
	want := ft.Records()
	tr, err := ReadFlitTrace(ft.EncodeTrace())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRouters != 64 || len(tr.Records) != len(want) {
		t.Fatalf("decoded %d routers / %d records, want 64 / %d",
			tr.NumRouters, len(tr.Records), len(want))
	}
	for i := range want {
		g, w := tr.Records[i], want[i]
		g.seq, w.seq = 0, 0
		if g != w {
			t.Fatalf("record %d: %+v != %+v", i, g, w)
		}
	}
}

// rawFlitRecord is one flit-trace record with fields wide enough to hold
// values the decoder must refuse.
type rawFlitRecord struct {
	cycle            int64
	packet, kind     uint64
	router, port, vc int64
}

// flitContainer builds a noc-flt container claiming routers routers and
// count records, followed by recs.
func flitContainer(routers int64, count uint64, recs ...rawFlitRecord) []byte {
	w := ckpt.NewWriter(ckpt.Header{Kind: KindFlitTrace, Version: flitTraceVersion})
	w.I64(routers)
	w.U64(count)
	for _, r := range recs {
		w.I64(r.cycle)
		w.U64(r.packet)
		w.U64(r.kind)
		w.I64(r.router)
		w.I64(r.port)
		w.I64(r.vc)
	}
	return w.Finish()
}

func TestReadFlitTraceRejectsGarbage(t *testing.T) {
	good := NewFlitTracer(4, FlitTracerConfig{}).EncodeTrace()
	cases := map[string][]byte{
		"empty":      nil,
		"bad magic":  []byte("BADMAGIC\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
		"truncated":  good[:len(good)-1],
		"wrong kind": ckpt.NewWriter(ckpt.Header{Kind: "noc-net", Version: flitTraceVersion}).Finish(),
		"no routers": flitContainer(0, 0),
		"short body": flitContainer(4, 2, rawFlitRecord{cycle: 1}),
	}
	hop := rawFlitRecord{cycle: 1, packet: 7, kind: uint64(EvHop)}
	for name, mut := range map[string]func(r *rawFlitRecord){
		"unknown kind":    func(r *rawFlitRecord) { r.kind = uint64(EvCreditStall) + 1 },
		"router too high": func(r *rawFlitRecord) { r.router = 4 },
		"router too low":  func(r *rawFlitRecord) { r.router = -2 },
		"port too high":   func(r *rawFlitRecord) { r.port = 1 << 15 },
		"vc too low":      func(r *rawFlitRecord) { r.vc = -2 },
	} {
		rec := hop
		mut(&rec)
		cases[name] = flitContainer(4, 1, rec)
	}
	for name, data := range cases {
		if _, err := ReadFlitTrace(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, data := range [][]byte{good, flitContainer(4, 1, hop)} {
		if _, err := ReadFlitTrace(data); err != nil {
			t.Errorf("valid trace refused: %v", err)
		}
	}
}

// TestReadFlitTraceBoundsAllocation pins two forged headers that used to
// drive huge allocations: a claim of 2^25 records over an empty body, and
// a router count of 0xFFFFFFF0 (which sized the Chrome exporter's tables).
// Both must be refused within the fuzz target's allocation bound.
func TestReadFlitTraceBoundsAllocation(t *testing.T) {
	for name, data := range map[string][]byte{
		"2^25 records":       flitContainer(16, 1<<25),
		"0xFFFFFFF0 routers": flitContainer(0xFFFFFFF0, 0),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFlitTrace(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > flitAllocPerByte*uint64(len(data))+flitAllocSlack {
			t.Errorf("%s: %d-byte input allocated %d bytes", name, len(data), grew)
		}
	}
}

func TestFlitTraceChromeExport(t *testing.T) {
	ft := NewFlitTracer(64, FlitTracerConfig{})
	tracedMeshRun(t, ft)
	var buf bytes.Buffer
	if err := ft.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	nEvents, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if nEvents <= ft.Len() {
		t.Fatalf("chrome trace has %d events for %d records (missing metadata/counters?)",
			nEvents, ft.Len())
	}
}
