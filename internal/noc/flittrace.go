package noc

import (
	"fmt"
	"io"
	"math"
	"sort"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/obs"
)

// EventKind classifies the events a FlitTracer records.
type EventKind uint8

const (
	// EvInject: the head flit left the NI queue into the source router.
	EvInject EventKind = iota
	// EvHop: the head flit was delivered into a router input buffer.
	EvHop
	// EvEscape: the packet diverted to the escape sub-network.
	EvEscape
	// EvEject: the tail flit was consumed at the destination.
	EvEject

	// Detail events expose the microarchitectural pipeline the macro
	// events skip over (suppressed by FlitTracerConfig.MacroOnly). Each
	// carries in FlitRecord.Arg the attribution stall cycles it settles.

	// EvVCAlloc: a waiting head won a downstream virtual channel. Arg is
	// the VC-allocation cycles the head has lost at this router so far;
	// after an escape rescue revokes a grant the later grant carries the
	// running total, so the last grant per (packet, router) is the hop's
	// AttrVCAlloc share.
	EvVCAlloc
	// EvSwitchAlloc: a flit won switch allocation and traversed the
	// crossbar onto its output link. For a head, Arg is the hop's
	// AttrSwitchAlloc remainder; it is 0 for body flits.
	EvSwitchAlloc
	// EvCreditStall: an active VC had a flit ready but no downstream
	// credit this cycle (back-pressure; emitted once per stalled VC per
	// cycle). Arg is 1 when the stalled front flit is a head, the cycle
	// AttrCredit counts, and 0 for a body flit.
	EvCreditStall
)

func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvHop:
		return "hop"
	case EvEscape:
		return "escape"
	case EvEject:
		return "eject"
	case EvVCAlloc:
		return "vc_alloc"
	case EvSwitchAlloc:
		return "sw_alloc"
	case EvCreditStall:
		return "credit_stall"
	}
	return "?"
}

// FlitRecord is one compact trace record: a macro packet event or a
// microarchitectural detail event (see EventKind). Router is the receiving
// router for hops, the source router for injects, the allocating router
// for detail events and -1 for ejects; Port and VC locate detail events
// (output port, downstream VC) and are -1 on macro events. Arg is the
// attribution stall cycles the event settles, 0 on macro events.
type FlitRecord struct {
	Cycle  int64
	Packet uint64
	Kind   EventKind
	Router int16
	Port   int16
	VC     int16
	Arg    int32

	seq uint32 // capture order within Cycle; in-memory only, implied by file order
}

// FlitTracerConfig sizes the flit tracer.
type FlitTracerConfig struct {
	// PerRouter is the ring capacity (records) of each per-router arena.
	// Zero means 4096. When an arena fills, the oldest records in it are
	// overwritten and counted in Dropped.
	PerRouter int
	// MacroOnly restricts capture to packet life-cycle events, suppressing
	// the VC-allocation / switch-allocation / credit-stall detail stream.
	MacroOnly bool
}

// flitArena is one fixed-capacity overwrite ring of records.
type flitArena struct {
	buf  []FlitRecord
	head int // next write slot
	n    int // live records (≤ cap)
}

func (a *flitArena) push(rec FlitRecord) (overwrote bool) {
	if a.n < len(a.buf) {
		a.n++
	} else {
		overwrote = true
	}
	a.buf[a.head] = rec
	a.head++
	if a.head == len(a.buf) {
		a.head = 0
	}
	return overwrote
}

// records appends the arena's live records in capture order.
func (a *flitArena) records(out []FlitRecord) []FlitRecord {
	start := a.head - a.n
	if start < 0 {
		start += len(a.buf)
	}
	for i := 0; i < a.n; i++ {
		j := start + i
		if j >= len(a.buf) {
			j -= len(a.buf)
		}
		out = append(out, a.buf[j])
	}
	return out
}

// FlitTracer is the network's one event recorder: it captures packet,
// pipeline and attribution events into per-router ring arenas with a
// bounded memory footprint, for export to a flit-trace file or a
// Perfetto-loadable Chrome trace.
//
// Per-router rings (rather than one global ring) keep a congested hot spot
// from evicting the history of quiet routers, so a post-mortem still shows
// every router's recent activity.
type FlitTracer struct {
	numRouters int
	macroOnly  bool
	arenas     []flitArena // one per router + one sink arena for ejects
	cycle      int64       // cycle of the last record; seq restarts when it moves
	seq        uint32
	dropped    uint64
}

// NewFlitTracer builds a tracer for a network with numRouters routers.
func NewFlitTracer(numRouters int, cfg FlitTracerConfig) *FlitTracer {
	if numRouters < 1 {
		panic("noc: NewFlitTracer with no routers")
	}
	per := cfg.PerRouter
	if per <= 0 {
		per = 4096
	}
	ft := &FlitTracer{numRouters: numRouters, macroOnly: cfg.MacroOnly}
	ft.arenas = make([]flitArena, numRouters+1)
	backing := make([]FlitRecord, (numRouters+1)*per)
	for i := range ft.arenas {
		ft.arenas[i].buf = backing[i*per : (i+1)*per]
	}
	return ft
}

// NewNetworkFlitTracer is NewFlitTracer sized for n, but not yet installed
// (call n.SetTracer with the result).
func NewNetworkFlitTracer(n *Network, cfg FlitTracerConfig) *FlitTracer {
	return NewFlitTracer(len(n.routers), cfg)
}

// SetTracer installs (or removes, with nil) the flit tracer. Tracing
// disables intra-cycle sharding (event order is part of the observable
// behavior), so traced runs execute on the sequential kernel.
func (n *Network) SetTracer(ft *FlitTracer) { n.tracer = ft }

// trace records a macro event at the current cycle.
func (n *Network) trace(kind EventKind, pkt uint64, router int) {
	if n.tracer != nil {
		n.tracer.record(n.cycle, kind, pkt, router, -1, -1, 0)
	}
}

func (ft *FlitTracer) record(cycle int64, kind EventKind, pkt uint64, router int, port, vc int16, arg int32) {
	if ft.macroOnly && kind >= EvVCAlloc {
		return
	}
	if cycle != ft.cycle {
		ft.cycle, ft.seq = cycle, 0
	}
	idx := router
	if idx < 0 || idx >= ft.numRouters {
		idx = ft.numRouters // sink arena: ejects and anything off-mesh
	}
	rec := FlitRecord{
		Cycle: cycle, Packet: pkt, Kind: kind,
		Router: int16(router), Port: port, VC: vc, Arg: arg,
		seq: ft.seq,
	}
	ft.seq++
	if ft.arenas[idx].push(rec) {
		ft.dropped++
	}
}

// Dropped returns how many records were overwritten by ring wrap-around.
func (ft *FlitTracer) Dropped() uint64 { return ft.dropped }

// Len returns the number of live records across all arenas.
func (ft *FlitTracer) Len() int {
	total := 0
	for i := range ft.arenas {
		total += ft.arenas[i].n
	}
	return total
}

// Records returns all live records merged into capture order.
func (ft *FlitTracer) Records() []FlitRecord {
	out := make([]FlitRecord, 0, ft.Len())
	for i := range ft.arenas {
		out = ft.arenas[i].records(out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// Flit-trace files are NOCCKPT01 containers of kind "noc-flt" (header
// fields zero) whose body is:
//
//	varint   number of routers, in [1, 32767]
//	uvarint  record count
//	records  in capture order, each:
//	         varint  cycle delta from the previous record
//	         uvarint packet id
//	         uvarint kind
//	         varint  router (-1 for ejects), port, vc (-1 where not applicable)
//	         varint  arg, in [0, 2^31)
const (
	// KindFlitTrace labels a flit-trace container.
	KindFlitTrace = "noc-flt"

	flitTraceVersion = 2
)

// FlitTrace is a decoded flit trace.
type FlitTrace struct {
	NumRouters int
	Records    []FlitRecord // capture order
}

// EncodeTrace serializes the tracer's live records as a flit-trace
// container.
func (ft *FlitTracer) EncodeTrace() []byte {
	recs := ft.Records()
	w := ckpt.NewWriter(ckpt.Header{Kind: KindFlitTrace, Version: flitTraceVersion})
	w.Int(ft.numRouters)
	w.U64(uint64(len(recs)))
	var prev int64
	for i := range recs {
		rec := &recs[i]
		w.I64(rec.Cycle - prev)
		prev = rec.Cycle
		w.U64(rec.Packet)
		w.U64(uint64(rec.Kind))
		w.Int(int(rec.Router))
		w.Int(int(rec.Port))
		w.Int(int(rec.VC))
		w.Int(int(rec.Arg))
	}
	return w.Finish()
}

// ReadFlitTrace decodes a flit-trace file's bytes. It refuses a router
// count outside [1, 32767] and any record whose kind is unknown, whose
// router lies outside [-1, NumRouters), whose port or VC lies outside
// [-1, 32767] or whose arg lies outside [0, 2^31); structural damage
// wraps ckpt.ErrCorrupt.
func ReadFlitTrace(data []byte) (*FlitTrace, error) {
	r, err := ckpt.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("noc: flit trace: %w", err)
	}
	if h := r.Header(); h.Kind != KindFlitTrace || h.Version != flitTraceVersion {
		return nil, fmt.Errorf("noc: %s v%d is not a flit trace", h.Kind, h.Version)
	}
	routers := r.I64()
	if r.Err() == nil && (routers < 1 || routers > math.MaxInt16) {
		return nil, fmt.Errorf("noc: flit trace router count %d outside [1, %d]", routers, math.MaxInt16)
	}
	tr := &FlitTrace{NumRouters: int(routers)}
	tr.Records = make([]FlitRecord, 0, r.Count())
	var cycle int64
	for i := 0; i < cap(tr.Records) && r.Err() == nil; i++ {
		cycle += r.I64()
		packet, kind := r.U64(), r.U64()
		router, port, vc, arg := r.I64(), r.I64(), r.I64(), r.I64()
		if r.Err() != nil {
			break
		}
		if kind > uint64(EvCreditStall) || router < -1 || router >= routers ||
			port < -1 || port > math.MaxInt16 || vc < -1 || vc > math.MaxInt16 ||
			arg < 0 || arg > math.MaxInt32 {
			return nil, fmt.Errorf("noc: flit trace record %d: kind %d router %d port %d vc %d arg %d out of range", i, kind, router, port, vc, arg)
		}
		tr.Records = append(tr.Records, FlitRecord{
			Cycle: cycle, Packet: packet, Kind: EventKind(kind),
			Router: int16(router), Port: int16(port), VC: int16(vc), Arg: int32(arg),
		})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("noc: flit trace: %w", err)
	}
	return tr, nil
}

// ChromeTraceEvents converts flit records into Chrome trace events laid out
// for Perfetto: one process per router (plus a "network" process for NI
// injects/ejects), one thread per output port, one instant event per record
// (1 cycle = 1 µs) carrying a "stall" arg where Arg is nonzero, a running
// packets-in-flight counter derived from inject/eject pairs, and per
// router a cumulative "stall_cycles" counter track (vc_alloc, switch_alloc,
// credit) built from the detail events' args. recs must be in capture
// order.
func ChromeTraceEvents(numRouters int, recs []FlitRecord) []obs.ChromeEvent {
	netPID := numRouters
	out := make([]obs.ChromeEvent, 0, len(recs)+numRouters+8)
	pidSeen := make([]bool, numRouters+1)
	type tidKey struct{ pid, tid int }
	tidSeen := map[tidKey]bool{}
	meta := func(pid, tid int) {
		if !pidSeen[pid] {
			pidSeen[pid] = true
			name := fmt.Sprintf("router %d", pid)
			if pid == netPID {
				name = "network"
			}
			out = append(out, obs.ProcessName(pid, name))
		}
		k := tidKey{pid, tid}
		if !tidSeen[k] {
			tidSeen[k] = true
			name := fmt.Sprintf("port %d", tid-1)
			if tid == 0 {
				name = "packets"
			}
			out = append(out, obs.ThreadName(pid, tid, name))
		}
	}
	// Per-router cumulative stall tallies. A VC grant carries the hop's
	// running total, so its counter step is the increase over the last
	// grant of the same (packet, router); the head's switch-allocation
	// record closes the hop.
	stall := make([][3]int64, numRouters+1)
	type hopKey struct {
		pkt    uint64
		router int16
	}
	granted := map[hopKey]int32{}
	inflight := 0
	for i := range recs {
		rec := &recs[i]
		pid := int(rec.Router)
		if pid < 0 || pid > numRouters {
			pid = netPID
		}
		tid := int(rec.Port) + 1 // port -1 (macro events) → thread 0
		meta(pid, tid)
		args := map[string]any{"packet": rec.Packet}
		if rec.VC >= 0 {
			args["vc"] = rec.VC
		}
		if rec.Arg != 0 {
			args["stall"] = rec.Arg
		}
		out = append(out, obs.ChromeEvent{
			Name: rec.Kind.String(), Cat: "noc", Ph: "i", S: "t",
			TS: float64(rec.Cycle), PID: pid, TID: tid, Args: args,
		})
		var step int64
		switch rec.Kind {
		case EvInject:
			inflight++
		case EvEject:
			inflight--
		case EvVCAlloc:
			k := hopKey{rec.Packet, rec.Router}
			step = int64(rec.Arg - granted[k])
			granted[k] = rec.Arg
			stall[pid][0] += step
		case EvSwitchAlloc:
			delete(granted, hopKey{rec.Packet, rec.Router})
			step = int64(rec.Arg)
			stall[pid][1] += step
		case EvCreditStall:
			step = int64(rec.Arg)
			stall[pid][2] += step
		}
		if rec.Kind == EvInject || rec.Kind == EvEject {
			meta(netPID, 0)
			out = append(out, obs.ChromeEvent{
				Name: "packets_inflight", Ph: "C", TS: float64(rec.Cycle),
				PID: netPID, Args: map[string]any{"packets": inflight},
			})
		}
		if step != 0 {
			tl := &stall[pid]
			out = append(out, obs.ChromeEvent{
				Name: "stall_cycles", Ph: "C", TS: float64(rec.Cycle), PID: pid,
				Args: map[string]any{"vc_alloc": tl[0], "switch_alloc": tl[1], "credit": tl[2]},
			})
		}
	}
	return out
}

// WriteChromeTrace exports the tracer's live records as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (ft *FlitTracer) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, ChromeTraceEvents(ft.numRouters, ft.Records()))
}

// WriteChromeTrace exports a decoded flit trace as Chrome trace-event JSON.
func (tr *FlitTrace) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, ChromeTraceEvents(tr.NumRouters, tr.Records))
}
