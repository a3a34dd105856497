package noc

// Causal latency attribution: every cycle of a delivered packet's life is
// accounted to exactly one cause bucket, per hop, on an always-on counter
// path that is far cheaper than the full FlitTracer event stream. An
// installed FlitTracer sees the same per-hop split on the detail events
// that end each stall (FlitRecord.Arg).
//
// The accounting is exact by construction. For a packet with H hops the
// head flit visits H+1 routers; its delivery timeline telescopes as
//
//	RecvCycle - CreateCycle =
//	    (InjectCycle - CreateCycle)        source NI queue wait
//	  + 1 + 3*(H+1)                        contention-free pipeline + links
//	  + sum over visits of stall_i         contention at each router
//	  + (RecvCycle - headRecv)             body-flit serialization/drain
//
// where stall_i = sendCycle - arriveCycle - 1 at visit i (a freshly
// buffered head becomes eligible one cycle after arrival and needs one
// eligible cycle even with zero contention — those cycles are part of the
// 3-per-visit pipeline term). Each stall cycle is further split: cycles
// where the head lost downstream VC allocation are counted incrementally
// at the allocation attempt (AttrVCAlloc), cycles where the head sat at
// the front of an allocated VC without a downstream credit are counted at
// the switch-allocator's credit check (AttrCredit), and the remainder —
// lost switch arbitration, waiting behind the predecessor worm in the
// same buffer, and credit gaps on cycles the allocator never reached the
// VC — is the switch-allocation bucket (AttrSwitchAlloc). The two counted
// sets are disjoint (a VC is either waiting for a VC or holding one) and
// neither can include the send cycle itself, so the remainder is never
// negative and the six buckets sum to the measured end-to-end latency
// exactly — the invariant TestAttributionExactSum pins.
//
// All attribution state lives on the packet whose head the visited router
// holds, plus per-router rollup counters written only at head settlement
// inside that router — the same single-writer-per-pass discipline the
// sharded tick already relies on, so attribution is race-free at any
// worker count. None of the counters feed Stats.Fingerprint or
// Network.Fingerprint: attribution is observation-only and golden
// fingerprints are byte-identical with it on or off.

// AttrBucket indexes the causal latency buckets of the attribution layer.
type AttrBucket int

const (
	// AttrQueue is residency in the source NI injection queue.
	AttrQueue AttrBucket = iota
	// AttrVCAlloc counts cycles the head flit lost downstream virtual
	// channel allocation.
	AttrVCAlloc
	// AttrSwitchAlloc counts head stall cycles charged to switch
	// allocation: lost arbitration, waiting behind the predecessor worm,
	// and credit gaps outside the allocator's visit.
	AttrSwitchAlloc
	// AttrCredit counts cycles the head sat at the front of an allocated
	// VC with no downstream credit (backpressure).
	AttrCredit
	// AttrLink is the contention-free pipeline and link traversal time:
	// one NI wire cycle plus three cycles per router visit.
	AttrLink
	// AttrSerialization is the drain time of the body flits behind the
	// head (tail arrival minus head arrival at the destination).
	AttrSerialization

	// NumAttrBuckets is the bucket count (array length of rollups).
	NumAttrBuckets
)

func (b AttrBucket) String() string {
	switch b {
	case AttrQueue:
		return "queue"
	case AttrVCAlloc:
		return "vc_alloc"
	case AttrSwitchAlloc:
		return "switch_alloc"
	case AttrCredit:
		return "credit"
	case AttrLink:
		return "link"
	case AttrSerialization:
		return "serialization"
	}
	return "?"
}

// AttrBucketNames returns the bucket names in index order.
func AttrBucketNames() []string {
	out := make([]string, NumAttrBuckets)
	for b := AttrBucket(0); b < NumAttrBuckets; b++ {
		out[b] = b.String()
	}
	return out
}

// SetAttribution toggles the always-on attribution counter path (default
// on). Turning it off mid-flight leaves packets partially attributed, so
// benchmarks flip it before the first Step. The toggle never changes
// simulated behavior or fingerprints.
func (n *Network) SetAttribution(on bool) { n.atrOn = on }

// AttributionEnabled reports whether the counter path is armed.
func (n *Network) AttributionEnabled() bool { return n.atrOn }

// Attribution returns the packet's causal latency decomposition in
// cycles. It is meaningful once the packet has been delivered (observed
// via SetOnPacket or after RecvCycle is set) on a network with
// attribution enabled for the packet's whole lifetime; the buckets then
// sum exactly to RecvCycle-CreateCycle.
func (p *Packet) Attribution() [NumAttrBuckets]int64 {
	var a [NumAttrBuckets]int64
	a[AttrQueue] = p.InjectCycle - p.CreateCycle
	a[AttrVCAlloc] = p.atrVC
	a[AttrSwitchAlloc] = p.atrSA
	a[AttrCredit] = p.atrCredit
	a[AttrLink] = int64(1 + 3*(p.Hops+1))
	a[AttrSerialization] = p.RecvCycle - p.headRecv
	return a
}

// Attribution returns the summed per-bucket cycles over packets received
// in the measurement window.
func (s *Stats) Attribution() [NumAttrBuckets]int64 { return s.attr }

// AttrResidual is TotalLatency minus the sum of the attribution buckets
// over the measurement window — zero whenever attribution was enabled for
// every measured packet's whole lifetime.
func (s *Stats) AttrResidual() int64 {
	r := s.TotalLatency
	for _, v := range s.attr {
		r -= v
	}
	return r
}

// RouterAttribution returns the per-router stall-cycle rollup since the
// last ResetStats: contention buckets at the router where the head
// stalled, queue wait and the NI wire cycle at the source router,
// serialization at the destination router. Summed over routers the
// rollup equals the per-packet attribution summed over every packet
// delivered in the window (fault-free runs).
func (n *Network) RouterAttribution() [][NumAttrBuckets]int64 {
	out := make([][NumAttrBuckets]int64, len(n.routers))
	for r := range n.routers {
		out[r] = n.routers[r].atr
	}
	return out
}

// settleAttrHop folds the per-hop scratch counters of a departing head
// flit into the packet and the router rollup, and returns the hop's
// switch-allocation share: the remainder of the measured hop stall after
// the incrementally counted causes. Called from sendFlit with the settling
// router.
func (n *Network) settleAttrHop(rt *router, f *Flit) int32 {
	p := f.Pkt
	stall := n.cycle - f.arrive - 1
	sa := stall - int64(p.hopVC) - int64(p.hopCredit)
	p.atrVC += int64(p.hopVC)
	p.atrCredit += int64(p.hopCredit)
	p.atrSA += sa
	rt.atr[AttrVCAlloc] += int64(p.hopVC)
	rt.atr[AttrCredit] += int64(p.hopCredit)
	rt.atr[AttrSwitchAlloc] += sa
	rt.atr[AttrLink] += 3
	p.hopVC, p.hopCredit = 0, 0
	return int32(sa)
}
