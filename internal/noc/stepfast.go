package noc

// Idle fast-forward. During a drain (no packets queued, no streams
// mid-injection) the only future work is timed events already sitting in
// the wire and credit queues — and, when faults are armed, scheduled
// fault events. Every cycle strictly before the earliest of those
// maturities is provably a no-op Step: deliver pops nothing, inject has
// no candidates, the allocation stages skip routers with inFlits == 0,
// and accumulate adds Cycles++ plus a zero occupancy sample per router.
// StepUntilQuiesced therefore jumps the clock straight to the horizon and
// pays one real Step there, gated by the golden fingerprints (skipped
// cycles still count into Stats.Cycles exactly as the spin would have).

import "fmt"

// fastForwardable reports whether the network is in a state where cycles
// up to the event horizon cannot change any observable state. It is
// deliberately conservative: any attached per-cycle observer (sampler,
// tracer) or pending purge disables the jump.
func (n *Network) fastForwardable() bool {
	if n.queuedPackets != 0 || n.onCycle != nil || n.tracer != nil {
		return false
	}
	if len(n.brokenQ) != 0 {
		return false
	}
	for t := range n.nis {
		if len(n.nis[t].streams) != 0 {
			return false
		}
	}
	for _, f := range n.inFlits {
		if f != 0 {
			return false
		}
	}
	return true
}

// eventHorizon returns the earliest future cycle at which anything can
// happen: the maturity of the oldest wire or credit event on any port
// (both queues are FIFO in maturity, so the front is the minimum), or the
// next scheduled fault event. ok is false when no future event exists.
func (n *Network) eventHorizon() (horizon int64, ok bool) {
	consider := func(at int64) {
		if !ok || at < horizon {
			horizon, ok = at, true
		}
	}
	for r := range n.routers {
		rt := &n.routers[r]
		for _, op := range rt.out {
			if op.wire.n > 0 {
				consider(op.wire.front().at)
			}
			if op.creditQ.n > 0 {
				consider(op.creditQ.front().at)
			}
		}
	}
	for t := range n.nis {
		up := &n.nis[t].up
		if up.wire.n > 0 {
			consider(up.wire.front().at)
		}
		if up.creditQ.n > 0 {
			consider(up.creditQ.front().at)
		}
	}
	if n.faultsArmed && n.faultNext < len(n.faultEvents) {
		consider(n.faultEvents[n.faultNext].Cycle)
	}
	return horizon, ok
}

// skipIdleCycles advances the clock to just before the event horizon when
// the network is provably idle, accounting the skipped cycles into the
// statistics exactly as the equivalent no-op Steps would have. It returns
// the number of cycles skipped.
func (n *Network) skipIdleCycles() int64 {
	if !n.fastForwardable() {
		return 0
	}
	horizon, ok := n.eventHorizon()
	if !ok {
		return 0
	}
	// The next Step runs at cycle+1; skip only the cycles strictly before
	// the horizon so the event-bearing cycle itself executes for real.
	skip := horizon - n.cycle - 1
	if skip <= 0 {
		return 0
	}
	n.cycle += skip
	n.stats.Cycles += skip
	return skip
}

// StepUntilQuiesced steps the network until no traffic remains, jumping
// over provably idle stretches. It is behaviorally identical to calling
// Step in a loop until Quiesced (same fingerprints, same statistics) and
// returns the number of simulated cycles advanced. An error is returned
// if the network fails to quiesce within maxCycles simulated cycles.
func (n *Network) StepUntilQuiesced(maxCycles int64) (int64, error) {
	start := n.cycle
	for !n.Quiesced() {
		if n.cycle-start >= maxCycles {
			return n.cycle - start, fmt.Errorf("noc: network did not quiesce within %d cycles (%d flits in flight, %d queued)",
				maxCycles, n.flitsInNetwork, n.queuedPackets)
		}
		n.skipIdleCycles()
		if err := n.Step(); err != nil {
			return n.cycle - start, err
		}
	}
	return n.cycle - start, nil
}

// StepUntilQuiesced steps the reliability layer until the network is
// quiet and no transfer awaits an acknowledgement, jumping over idle
// stretches — including the long waits for retransmission timers, which
// dominate wall time in recovery scenarios. Behaviorally identical to
// calling Reliable.Step in a loop.
func (rel *Reliable) StepUntilQuiesced(maxCycles int64) (int64, error) {
	n := rel.net
	start := n.cycle
	for !rel.Quiesced() {
		if n.cycle-start >= maxCycles {
			return n.cycle - start, fmt.Errorf("noc: reliable layer did not quiesce within %d cycles (%d pending transfers)",
				maxCycles, len(rel.pending))
		}
		// The retransmission timers are an extra event source: cap the
		// network's idle jump at the earliest deadline so the timer pop in
		// Reliable.Step happens on exactly the cycle it always would.
		if n.fastForwardable() {
			horizon, ok := n.eventHorizon()
			if len(rel.timers) > 0 && (!ok || rel.timers[0].deadline < horizon) {
				horizon, ok = rel.timers[0].deadline, true
			}
			if ok {
				if skip := horizon - n.cycle - 1; skip > 0 {
					n.cycle += skip
					n.stats.Cycles += skip
				}
			}
		}
		if err := rel.Step(); err != nil {
			return n.cycle - start, err
		}
	}
	return n.cycle - start, nil
}
