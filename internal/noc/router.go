package noc

import "heteronoc/internal/topology"

type vcState uint8

const (
	vcIdle   vcState = iota // no packet; waiting for a head flit
	vcWaitVC                // head routed, waiting for a downstream VC
	vcActive                // downstream VC held; flits flow
)

// inVC is one virtual channel of an input port. The allocation stages scan
// these linearly every cycle, so the struct is packed into 48 bytes (narrow
// index fields, int32 counters) to keep a port's VCs within two cache
// lines; router radix and VC counts are far below the int16 range.
type inVC struct {
	buf   ring
	state vcState
	// idx is this VC's position within its input port, fixed at
	// construction so the credit path never has to search for it.
	idx        uint8
	outPort    int16
	outVC      int16
	class      int16
	waitCycles int32 // consecutive cycles of failed VC allocation
	// cur is the packet the VC is currently routing or sending (nil when
	// idle). The fault-recovery purge uses it to find and reset VCs whose
	// packet lost a flit, including VCs whose buffer has drained
	// mid-packet.
	cur *Packet
	// headArrive mirrors the front flit's arrive cycle (undefined when the
	// buffer is empty), so the switch-allocation eligibility check reads
	// this struct instead of touching the buffer slot array.
	headArrive int64
}

// inputPort is the buffered side of a link.
type inputPort struct {
	vcs []inVC
	rr  int // round-robin pointer of the input-stage (v:1) arbiter
	// flits counts buffered flits across the port's VCs; the allocator
	// stages skip ports with zero occupancy without touching their VCs.
	flits int
	// Candidate masks over the port's VCs, maintained at every buffer or
	// state mutation so the allocation stages iterate set bits instead of
	// scanning every VC:
	//
	//	raMask bit v set <=> vcs[v] buffers a flit and is not yet active
	//	       (stage-1 work: route compute or downstream VC allocation)
	//	saMask bit v set <=> vcs[v] buffers a flit and holds a downstream
	//	       VC (a switch-allocation candidate)
	//
	// The union is exactly the non-empty VCs, so flits > 0 iff a mask bit
	// is set. CheckInvariants audits both against a rescan.
	raMask uint32
	saMask uint32
	// upstream is the output port (router or NI) feeding this input; credits
	// travel back to it. nil for dead edge ports.
	upstream *outputPort
}

type wireEvt struct {
	flit  Flit
	outVC int
	at    int64
}

type creditEvt struct {
	vc int
	at int64
}

// outputPort is the sending side of a link plus the upstream-resident state
// of the downstream input port: per-VC credits and VC ownership.
type outputPort struct {
	router int // owning router, -1 when the "output" is an NI injection port
	port   int
	link   topology.Link
	isTerm bool
	term   int
	dead   bool
	slots  int // flits per cycle: 2 on wide links

	// Transient-fault window: while cycle <= faultUntil, flits delivered
	// across this link are corrupted (faultCorrupt, caught by the checksum
	// downstream) or dropped outright. Zero means no window.
	faultUntil   int64
	faultCorrupt bool

	// Downstream VC bookkeeping. credits is nil for terminal (ejection)
	// ports, which consume flits unconditionally. creditMask mirrors it —
	// bit v set iff VC v has a credit (all ones when credits is nil) — so
	// the eligibility check costs one field read instead of a slice chase.
	downVCs    int
	downDepth  int
	credits    []int
	creditMask uint32
	owner      []*Packet
	rrVC       int // VC allocation round-robin pointer

	// In-flight events toward the downstream side. Both queues are strict
	// FIFOs in maturity time (wires are enqueued at a fixed +1 or +2 delay,
	// credits always at +1), so deliver pops matured events from the front.
	wire    evq[wireEvt]
	creditQ evq[creditEvt]

	// Statistics.
	flitsSent     int64
	busyCycles    int64
	combineCycles int64
}

// creditOK reports whether a flit can be sent on downstream VC vc.
func (o *outputPort) creditOK(vc int) bool {
	return o.creditMask&(1<<vc) != 0
}

// consumeCredit charges one buffer slot downstream.
func (o *outputPort) consumeCredit(vc int) {
	if o.credits != nil {
		o.credits[vc]--
		if o.credits[vc] < 0 {
			panic("noc: negative credit count")
		}
		if o.credits[vc] == 0 {
			o.creditMask &^= 1 << vc
		}
	}
}

// allocVC tries to allocate a free downstream VC in [lo, hi) for pkt,
// starting the scan at the round-robin pointer. Terminal ports always grant
// VC 0 (the sink consumes flits unconditionally).
func (o *outputPort) allocVC(pkt *Packet, lo, hi int) (int, bool) {
	if o.dead {
		return 0, false
	}
	if o.isTerm {
		return 0, true
	}
	if lo >= hi {
		return 0, false
	}
	n := hi - lo
	start := o.rrVC % n
	for i := 0; i < n; i++ {
		c := lo + (start+i)%n
		if o.owner[c] == nil {
			o.owner[c] = pkt
			o.rrVC++
			return c, true
		}
	}
	return 0, false
}

// releaseOnTail frees the downstream VC as soon as the tail flit has been
// sent (non-atomic VC reuse). This is safe because each VC is a strict
// FIFO: a new packet's head can only be processed downstream after the old
// packet's tail has drained past it, and credits bound total occupancy.
func (o *outputPort) releaseOnTail(vc int) {
	if o.isTerm {
		return
	}
	o.owner[vc] = nil
}

// router is one switch node.
type router struct {
	id  int
	cfg RouterConfig
	in  []inputPort
	out []*outputPort

	// Per-cycle scratch state of the iterative separable allocator,
	// allocated once at construction and reused across cycles: flits sent
	// per input port, slot budget left per output, and flits sent per
	// output. outSlots caches each output's link bandwidth so the per-cycle
	// budget reset never dereferences the output ports.
	portSent []int8
	outLeft  []int8
	outSent  []int8
	outSlots []int8

	// The active-set scheduling state (flit counts, occupied-port masks,
	// pending-event masks) lives in structure-of-arrays form on the Network
	// (inFlits/portMask/evMask, indexed by router ID) so the per-cycle scans
	// over mostly-idle large meshes walk dense arrays instead of striding
	// through router structs.

	// Statistics.
	bufOccSum int64 // sum over cycles of occupied buffer slots
	bufSlots  int   // total buffer slots (for utilization normalization)
	bufReads  int64
	bufWrites int64
	xbarFlits int64
	arbOps    int64
	// atr rolls up attribution cycles charged to this router (attrib.go):
	// contention buckets where the head stalled here, queue wait and the NI
	// wire at the source router, serialization at the destination router.
	atr [NumAttrBuckets]int64
}
