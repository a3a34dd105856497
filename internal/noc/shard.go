package noc

// Deterministic cycle sharding. SetShardWorkers splits the routers into
// one fixed, contiguous span per worker, and each span's terminals are the
// run of terminals whose routers it holds. Every stage of Step runs per
// span, in two phases separated by the pool's barrier: deliver, then
// inject, route/VC allocation, switch allocation and the occupancy count.
// Span s always runs on worker s and the caller runs span 0. The
// sequential kernel is the same code run as one span covering the network.
//
// A span writes the state of its own routers and terminals directly.
// Effects that leave the span follow these ownership rules, which keep the
// spans deterministic without atomics:
//
//   - each input port has exactly one feeder, so a flit delivered across a
//     span boundary writes that port's ring, headArrive, candidate masks and
//     flit count directly; the receiving router's own counters (inFlits,
//     portMask, bufWrites) go through the span's sink;
//   - each credit queue is filled by exactly one downstream input port, and
//     nothing reads credit queues until next cycle's deliver, so the credit
//     push is direct; the upstream router's event-mask bit goes through the
//     sink when that router lies outside the span;
//   - ejections are queued: the statistics, the endpoint attribution
//     rollups and the onPacket callback run after the deliver phase, span
//     by span, which is ascending router order as in a full scan;
//   - global counters (flits in the network and delivered, packets still
//     queued, watchdog progress) and packets marked broken fold per span
//     after their phase.
//
// The folds run on the caller between the phases, so the merged state is
// byte-identical to the one-span kernel for every worker count, which the
// golden fingerprints and the par determinism tests pin down. A cycle runs
// as one span whenever machinery with global side effects is active: a
// tracer (event order), an escaper (global escape stats and trace events
// in route allocation) or armed faults (purges walk the whole network).

import "heteronoc/internal/par"

// tickFx is one span of a cycle: the routers [lo,hi) and terminals
// [niLo,niHi) it runs, and the sink for its effects outside them.
type tickFx struct {
	n          *Network
	lo, hi     int
	niLo, niHi int

	// Deliver phase.
	arrivals []uint32  // flits buffered into routers outside the span, router<<5|port
	ejected  []*Packet // packets whose tail reached its terminal, in delivery order
	sunk     int       // flits consumed at terminals

	// Allocation phase.
	injected int       // flits launched from the span's NIs
	popped   int       // packets that left the span's NI queues
	evOr     []uint32  // event-mask bits of routers outside the span, router<<5|port
	broken   []*Packet // packets marked for purging, in router order

	moved bool     // a flit moved (watchdog progress)
	_     [64]byte // keep neighboring span sinks off one cache line
}

// owns reports whether router r lies in the span.
func (fx *tickFx) owns(r int) bool { return uint(r-fx.lo) < uint(fx.hi-fx.lo) }

// creditNotify marks the upstream output port's event mask so next cycle's
// deliver visits its freshly queued credit.
func (fx *tickFx) creditNotify(router, port int) {
	if !fx.owns(router) {
		fx.evOr = append(fx.evOr, uint32(router)<<5|uint32(port))
		return
	}
	fx.n.evMask[router] |= 1 << port
}

// endDeliver folds the deliver phase's sinks in span order and finishes
// the cycle's ejections.
func (n *Network) endDeliver(fxs []tickFx) {
	for i := range fxs {
		fx := &fxs[i]
		for _, a := range fx.arrivals {
			r := a >> 5
			n.inFlits[r]++
			n.portMask[r] |= 1 << (a & 31)
			n.routers[r].bufWrites++
		}
		fx.arrivals = fx.arrivals[:0]
		n.flitsInNetwork -= fx.sunk
		n.stats.FlitsReceived += int64(fx.sunk)
		fx.sunk = 0
		n.noteProgress(fx)
		for _, p := range fx.ejected {
			n.eject(p)
		}
		clear(fx.ejected)
		fx.ejected = fx.ejected[:0]
	}
}

// endAllocate folds the allocation phase's sinks in span order.
func (n *Network) endAllocate(fxs []tickFx) {
	for i := range fxs {
		fx := &fxs[i]
		for _, e := range fx.evOr {
			n.evMask[e>>5] |= 1 << (e & 31)
		}
		fx.evOr = fx.evOr[:0]
		n.flitsInNetwork += fx.injected
		n.stats.FlitsInjected += int64(fx.injected)
		n.queuedPackets -= fx.popped
		fx.injected, fx.popped = 0, 0
		n.noteProgress(fx)
		if len(fx.broken) > 0 {
			n.brokenQ = append(n.brokenQ, fx.broken...)
			clear(fx.broken)
			fx.broken = fx.broken[:0]
		}
	}
}

// noteProgress moves a span's progress flag to the watchdog.
func (n *Network) noteProgress(fx *tickFx) {
	if fx.moved {
		n.lastMove = n.cycle
		fx.moved = false
	}
}

// SetShardWorkers reconfigures cycle sharding: w > 0 runs every eligible
// Step as w spans on a persistent pool (w = 1 is the one-span kernel on
// the caller), 0 restores the plain sequential kernel. Requests beyond the
// router count are clamped: a span without a router would only idle.
// Results are bit-identical in every mode. Call Close when done with a
// sharded network to release the pool.
func (n *Network) SetShardWorkers(w int) {
	n.Close()
	if w <= 0 {
		return
	}
	nr := len(n.routers)
	w = min(w, nr)
	n.pool = par.NewPool(w)
	n.shards = make([]tickFx, w)
	t := 0
	for s := range n.shards {
		lo, hi := par.Span(nr, w, s)
		niLo := t
		for t < len(n.nis) && int(n.termRouter[t]) < hi {
			t++
		}
		n.shards[s] = tickFx{n: n, lo: lo, hi: hi, niLo: niLo, niHi: t}
	}
	// Terminals out of router order, if a topology numbers them so, fall
	// to the last span; any partition of the terminals is correct.
	n.shards[w-1].niHi = len(n.nis)
	n.deliverTick = func(s, _, _ int) { n.deliver(&n.shards[s]) }
	n.allocTick = func(s, _, _ int) { n.allocate(&n.shards[s]) }
}

// ShardWorkers returns the effective (post-clamp) worker count of the
// cycle-sharding pool, or 0 when the sequential kernel is active.
func (n *Network) ShardWorkers() int {
	if n.pool == nil {
		return 0
	}
	return n.pool.Workers()
}

// Close releases the shard worker pool, if any. The network remains usable
// sequentially. Idempotent.
func (n *Network) Close() {
	if n.pool != nil {
		n.pool.Close()
		n.pool = nil
		n.shards = nil
		n.deliverTick, n.allocTick = nil, nil
	}
}

// spans returns this cycle's spans: the pool's when it may run the cycle,
// else the one span covering the network.
func (n *Network) spans() []tickFx {
	if n.pool != nil && n.tracer == nil && n.escaper == nil && !n.faultsArmed {
		return n.shards
	}
	return n.whole[:]
}
