package noc

import (
	"runtime"
	"testing"
)

// Allocation bound for one ReadFlitTrace: flitAllocPerByte bytes per
// input byte plus flitAllocSlack. The record count is capped by the bytes
// that remain, so the record slice holds at most one 32-byte FlitRecord
// per input byte; the slack covers the reader and error values.
const (
	flitAllocPerByte = 32
	flitAllocSlack   = 16 << 10
)

// FuzzReadFlitTrace mutates real flit traces, recomputing the CRC footer
// so the mutations reach the record decoder. Every input must be refused
// or decode to a trace the Chrome exporter accepts; no input may panic or
// allocate beyond the bound above.
func FuzzReadFlitTrace(f *testing.F) {
	ft := NewFlitTracer(64, FlitTracerConfig{PerRouter: 4})
	tracedMeshRun(f, ft)
	f.Add(ft.EncodeTrace())
	f.Add(flitContainer(4, 1, rawFlitRecord{cycle: 3, packet: 1, router: -1, port: -1, vc: -1}))
	f.Add(flitContainer(4, 2,
		rawFlitRecord{cycle: 3, packet: 1, kind: uint64(EvVCAlloc), router: 2, port: 1, vc: 0, arg: 5},
		rawFlitRecord{cycle: 2, packet: 1, kind: uint64(EvCreditStall), router: 2, port: 1, vc: 0, arg: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = withCRC(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := ReadFlitTrace(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > flitAllocPerByte*uint64(len(data))+flitAllocSlack {
			t.Fatalf("decode of %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		ChromeTraceEvents(tr.NumRouters, tr.Records)
	})
}
