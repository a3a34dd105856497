package noc

import (
	"bytes"
	"runtime"
	"testing"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/obs"
)

// tracedPath returns the routers a packet's inject and hop records name,
// in capture order.
func tracedPath(recs []FlitRecord, pkt uint64) []int {
	var out []int
	for _, r := range recs {
		if r.Packet == pkt && (r.Kind == EvInject || r.Kind == EvHop) {
			out = append(out, int(r.Router))
		}
	}
	return out
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
	cycle                 int64
	packet, kind          uint64
	router, port, vc, arg int64
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
		w.I64(r.arg)
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
		"version 1":  ckpt.NewWriter(ckpt.Header{Kind: KindFlitTrace, Version: 1}).Finish(),
		"no routers": flitContainer(0, 0),
		"short body": flitContainer(4, 2, rawFlitRecord{cycle: 1}),
	}
	base := rawFlitRecord{cycle: 1, packet: 7, kind: uint64(EvSwitchAlloc), arg: 1<<31 - 1}
	for name, mut := range map[string]func(r *rawFlitRecord){
		"unknown kind":    func(r *rawFlitRecord) { r.kind = uint64(EvCreditStall) + 1 },
		"router too high": func(r *rawFlitRecord) { r.router = 4 },
		"router too low":  func(r *rawFlitRecord) { r.router = -2 },
		"port too high":   func(r *rawFlitRecord) { r.port = 1 << 15 },
		"vc too low":      func(r *rawFlitRecord) { r.vc = -2 },
		"arg negative":    func(r *rawFlitRecord) { r.arg = -1 },
		"arg too high":    func(r *rawFlitRecord) { r.arg = 1 << 31 },
	} {
		rec := base
		mut(&rec)
		cases[name] = flitContainer(4, 1, rec)
	}
	for name, data := range cases {
		if _, err := ReadFlitTrace(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, data := range [][]byte{good, flitContainer(4, 1, base)} {
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
