package noc

import "sort"

// Stats aggregates network-level counters and per-packet latency samples.
// Latency components follow the paper's Figure 8(a) decomposition:
//
//	queuing  — residency in the source NI queue,
//	transfer — the ideal pipeline plus serialization time for the path,
//	blocking — everything else (contention inside the network).
type Stats struct {
	Cycles int64

	PacketsInjected int64
	FlitsInjected   int64
	FlitsReceived   int64
	PacketsReceived int64
	Escapes         int64

	// Fault counters, all zero on fault-free runs (and then excluded from
	// the fingerprint, keeping fault-free golden hashes unchanged).
	FlitsLost         int64 // flits destroyed by link/router kills and purges
	FlitsDroppedFault int64 // flits dropped by transient drop windows
	FlitsCorrupted    int64 // flits dropped by the header-checksum check
	PacketsLost       int64 // packets purged after losing a flit
	PacketsUnroutable int64 // packets dropped for lack of a live route/terminal

	// Sum of per-packet cycle counts over received packets created after
	// the most recent ResetStats.
	TotalLatency    int64
	QueuingLatency  int64
	TransferLatency int64
	BlockingLatency int64
	HopsSum         int64

	// classes accumulates per-Packet.Class latency (the CMP simulator tags
	// packets with the protocol message type).
	classes map[int]*ClassStats

	// latHist is a 1-cycle-resolution latency histogram feeding Percentile.
	latHist []int64

	// attr sums the causal attribution buckets (attrib.go) over measured
	// packets. Observation-only: excluded from Fingerprint.
	attr [NumAttrBuckets]int64

	measureStart int64
}

// ClassStats is the per-traffic-class latency aggregate.
type ClassStats struct {
	Packets      int64
	TotalLatency int64
}

// Avg returns the class's mean latency in cycles.
func (c *ClassStats) Avg() float64 {
	if c.Packets == 0 {
		return 0
	}
	return float64(c.TotalLatency) / float64(c.Packets)
}

// IdealTransferCycles is the contention-free latency of a packet: one cycle
// NI-to-router plus pipeline eligibility, three cycles per hop (two router
// stages + link), the final ejection wire, and serialization of the
// remaining flits over the narrowest link on the path.
func IdealTransferCycles(hops, flits, minSlots int) int64 {
	if minSlots < 1 {
		minSlots = 1
	}
	ser := (flits - 1 + minSlots - 1) / minSlots
	return int64(1 + 3*(hops+1) + ser)
}

func (s *Stats) recordPacket(p *Packet) {
	if p.CreateCycle < s.measureStart {
		return
	}
	s.PacketsReceived++
	total := p.RecvCycle - p.CreateCycle
	queuing := p.InjectCycle - p.CreateCycle
	transfer := IdealTransferCycles(p.Hops, p.NumFlits, p.MinSlots)
	blocking := total - queuing - transfer
	if blocking < 0 {
		// The ideal formula serializes the flits behind a lone head,
		// ceil((flits-1)/slots) cycles, but on wide paths the head already
		// pairs with the first body flit, so even-length packets arrive one
		// cycle sooner at zero load (DESIGN.md §8). Fold that residue into
		// transfer so the totals stay exact.
		transfer += blocking
		blocking = 0
	}
	s.TotalLatency += total
	s.QueuingLatency += queuing
	s.TransferLatency += transfer
	s.BlockingLatency += blocking
	s.HopsSum += int64(p.Hops)
	if p.headRecv > 0 {
		// headRecv is only stamped while attribution is enabled, so this
		// gate keeps the bucket sums exact when it was toggled mid-run.
		a := p.Attribution()
		for b := AttrBucket(0); b < NumAttrBuckets; b++ {
			s.attr[b] += a[b]
		}
	}
	if s.classes == nil {
		s.classes = make(map[int]*ClassStats)
	}
	cs := s.classes[p.Class]
	if cs == nil {
		cs = &ClassStats{}
		s.classes[p.Class] = cs
	}
	cs.Packets++
	cs.TotalLatency += total
	s.ensureHist()
	b := total
	if b > latHistMax {
		b = latHistMax
	}
	s.latHist[b]++
}

// Class returns the aggregate for one traffic class (zero value when the
// class saw no packets).
func (s *Stats) Class(class int) ClassStats {
	if cs, ok := s.classes[class]; ok {
		return *cs
	}
	return ClassStats{}
}

// Classes lists the traffic classes observed, in ascending order.
func (s *Stats) Classes() []int {
	out := make([]int, 0, len(s.classes))
	for c := range s.classes {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// AvgLatency returns the mean packet latency in cycles over the measurement
// window.
func (s *Stats) AvgLatency() float64 {
	if s.PacketsReceived == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.PacketsReceived)
}

// AvgHops returns the mean hop count.
func (s *Stats) AvgHops() float64 {
	if s.PacketsReceived == 0 {
		return 0
	}
	return float64(s.HopsSum) / float64(s.PacketsReceived)
}

// Breakdown returns the average queuing, blocking and transfer latency in
// cycles.
func (s *Stats) Breakdown() (queuing, blocking, transfer float64) {
	if s.PacketsReceived == 0 {
		return 0, 0, 0
	}
	n := float64(s.PacketsReceived)
	return float64(s.QueuingLatency) / n, float64(s.BlockingLatency) / n, float64(s.TransferLatency) / n
}

// Stats returns the live network statistics.
func (n *Network) Stats() *Stats { return &n.stats }

// ResetStats clears all counters, starting a fresh measurement window.
// Packets injected before the reset are excluded from latency samples when
// they later arrive. Router activity counters restart too.
func (n *Network) ResetStats() {
	start := n.cycle
	n.stats = Stats{measureStart: start}
	for r := range n.routers {
		rt := &n.routers[r]
		rt.bufOccSum, rt.bufReads, rt.bufWrites, rt.xbarFlits, rt.arbOps = 0, 0, 0, 0, 0
		rt.atr = [NumAttrBuckets]int64{}
		for _, op := range rt.out {
			op.flitsSent, op.busyCycles, op.combineCycles = 0, 0, 0
		}
	}
}

// RouterActivity is the per-router activity snapshot consumed by the power
// model and the utilization heat maps.
type RouterActivity struct {
	Router       int
	BufReads     int64
	BufWrites    int64
	XbarFlits    int64
	ArbOps       int64
	LinkFlits    int64   // flits sent on network (non-terminal) links
	BufOccupancy float64 // mean fraction of buffer slots occupied
	LinkUtil     float64 // mean busy fraction of live network output links
	CombineFrac  float64 // fraction of busy wide-link cycles sending 2 flits
	Cycles       int64
}

// Activity returns per-router activity over the current measurement window.
func (n *Network) Activity() []RouterActivity {
	out := make([]RouterActivity, len(n.routers))
	cyc := n.stats.Cycles
	for r := range n.routers {
		rt := &n.routers[r]
		a := RouterActivity{
			Router:    r,
			BufReads:  rt.bufReads,
			BufWrites: rt.bufWrites,
			XbarFlits: rt.xbarFlits,
			ArbOps:    rt.arbOps,
			Cycles:    cyc,
		}
		if cyc > 0 && rt.bufSlots > 0 {
			a.BufOccupancy = float64(rt.bufOccSum) / float64(cyc) / float64(rt.bufSlots)
		}
		var live, busy, sent, wideBusy, combined int64
		for _, op := range rt.out {
			if op.dead || op.isTerm {
				continue
			}
			live++
			busy += op.busyCycles
			sent += op.flitsSent
			if op.slots > 1 {
				wideBusy += op.busyCycles
				combined += op.combineCycles
			}
		}
		a.LinkFlits = sent
		if cyc > 0 && live > 0 {
			a.LinkUtil = float64(busy) / float64(cyc) / float64(live)
		}
		if wideBusy > 0 {
			a.CombineFrac = float64(combined) / float64(wideBusy)
		}
		out[r] = a
	}
	return out
}

// CombineRate returns the network-wide fraction of busy wide-link cycles in
// which two flits were transmitted together (the paper reports ~40% at low
// load and ~80% at high load).
func (n *Network) CombineRate() float64 {
	var wideBusy, combined int64
	for r := range n.routers {
		for _, op := range n.routers[r].out {
			if op.dead || op.slots < 2 {
				continue
			}
			wideBusy += op.busyCycles
			combined += op.combineCycles
		}
	}
	if wideBusy == 0 {
		return 0
	}
	return float64(combined) / float64(wideBusy)
}

// PortCongestion scores output port p of router r by downstream buffer
// fullness (0 = all credits free, 1 = full) averaged over the port's VCs.
// Adaptive routing algorithms use it as their selection signal.
func (n *Network) PortCongestion(r, p int) float64 {
	op := n.routers[r].out[p]
	if op.dead || op.isTerm || op.credits == nil || op.downVCs == 0 {
		return 0
	}
	used := 0
	for vc := 0; vc < op.downVCs; vc++ {
		used += op.downDepth - op.credits[vc]
	}
	return float64(used) / float64(op.downVCs*op.downDepth)
}

// latHistMax bounds the latency histogram; slower packets land in the
// overflow bucket and report as ">= latHistMax".
const latHistMax = 4096

// ensureHist lazily allocates the latency histogram.
func (s *Stats) ensureHist() {
	if s.latHist == nil {
		s.latHist = make([]int64, latHistMax+1)
	}
}

// fnvOffset and fnvPrime are the 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a running hash.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Fingerprint hashes every packet-level counter, the per-class aggregates
// and the full 1-cycle-resolution latency histogram into one 64-bit value.
// Two simulations with identical behavior produce identical fingerprints;
// the golden determinism tests use this as the regression gate for kernel
// optimizations (same seeds must keep the fingerprint bit-identical).
func (s *Stats) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	for _, v := range []int64{
		s.Cycles, s.PacketsInjected, s.FlitsInjected, s.FlitsReceived,
		s.PacketsReceived, s.Escapes, s.TotalLatency, s.QueuingLatency,
		s.TransferLatency, s.BlockingLatency, s.HopsSum,
	} {
		h = fnvMix(h, uint64(v))
	}
	// Fault counters are mixed only when nonzero, tagged by position, so
	// fault-free fingerprints are byte-identical to the pre-fault-support
	// goldens while any fault activity still perturbs the hash.
	for i, v := range []int64{
		s.FlitsLost, s.FlitsDroppedFault, s.FlitsCorrupted,
		s.PacketsLost, s.PacketsUnroutable,
	} {
		if v != 0 {
			h = fnvMix(h, uint64(0xFA0+i))
			h = fnvMix(h, uint64(v))
		}
	}
	for _, c := range s.Classes() {
		cs := s.classes[c]
		h = fnvMix(h, uint64(c))
		h = fnvMix(h, uint64(cs.Packets))
		h = fnvMix(h, uint64(cs.TotalLatency))
	}
	for b, cnt := range s.latHist {
		if cnt != 0 {
			h = fnvMix(h, uint64(b))
			h = fnvMix(h, uint64(cnt))
		}
	}
	return h
}

// Fingerprint extends Stats.Fingerprint with the live network state and the
// per-router activity counters (buffer reads/writes, crossbar and arbiter
// activity, per-link flit/busy/combining counts), so any divergence in
// microarchitectural behavior — not just in delivered packets — changes the
// hash.
func (n *Network) Fingerprint() uint64 {
	h := n.stats.Fingerprint()
	h = fnvMix(h, uint64(n.cycle))
	h = fnvMix(h, uint64(n.flitsInNetwork))
	h = fnvMix(h, uint64(n.queuedPackets))
	for r := range n.routers {
		rt := &n.routers[r]
		h = fnvMix(h, uint64(rt.bufOccSum))
		h = fnvMix(h, uint64(rt.bufReads))
		h = fnvMix(h, uint64(rt.bufWrites))
		h = fnvMix(h, uint64(rt.xbarFlits))
		h = fnvMix(h, uint64(rt.arbOps))
		for _, op := range rt.out {
			h = fnvMix(h, uint64(op.flitsSent))
			h = fnvMix(h, uint64(op.busyCycles))
			h = fnvMix(h, uint64(op.combineCycles))
		}
	}
	return h
}

// Percentile returns the p-quantile (0 < p <= 1) of packet latency in
// cycles, from a 1-cycle-resolution histogram. The overflow bucket returns
// latHistMax.
func (s *Stats) Percentile(p float64) float64 {
	if s.PacketsReceived == 0 || s.latHist == nil {
		return 0
	}
	target := int64(p * float64(s.PacketsReceived))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.latHist {
		cum += c
		if cum >= target {
			return float64(i)
		}
	}
	return latHistMax
}
