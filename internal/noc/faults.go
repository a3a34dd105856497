package noc

// Fault injection and recovery. A fault.Plan armed via SetFaultPlan is
// applied at exact cycles at the top of Step, before any flit moves:
//
//   - Permanent link failures kill both directed endpoints: queued wire
//     flits and credits are destroyed, the ports refuse all future VC and
//     switch allocation, and the downstream input port loses its credit
//     channel. A fault-aware routing algorithm is rebuilt around the dead
//     links; packets that had not yet sent their head across the dead link
//     re-route, packets caught mid-flit are purged.
//   - Permanent router failures kill every link touching the router, purge
//     everything buffered inside it, and fail-stop the attached terminals.
//   - Transient faults open a window on one link direction during which
//     crossing flits are dropped outright or corrupted in flight; a header
//     checksum (computed at emission, verified at every delivery while
//     faults are armed) catches the corruption and the receiver drops the
//     flit.
//
// Any lost flit breaks its packet: the purge removes every remaining trace
// of the packet — NI streams, wire events, buffered flits, VC allocations —
// returning the freed buffer credits on live links so the credit-
// conservation invariant holds, and reports the loss through the OnDrop
// callback for the end-to-end reliability layer to recover.

import (
	"errors"
	"fmt"

	"heteronoc/internal/fault"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// ErrTerminalDown reports injection at (or to) a terminal whose router has
// fail-stopped.
var ErrTerminalDown = errors.New("noc: terminal attached to a failed router")

// DropReason classifies why a packet was purged from the network.
type DropReason uint8

const (
	DropNone       DropReason = iota
	DropLinkFail              // a flit was destroyed by a permanent link failure
	DropRouterFail            // the packet was buffered inside a failed router
	DropTransient             // a flit was dropped by a transient fault window
	DropCorrupt               // a flit failed the header-checksum check
	DropUnroutable            // no live route to the destination exists
	DropTermDown              // the source or destination terminal fail-stopped
)

func (d DropReason) String() string {
	switch d {
	case DropLinkFail:
		return "link-fail"
	case DropRouterFail:
		return "router-fail"
	case DropTransient:
		return "transient-drop"
	case DropCorrupt:
		return "checksum-drop"
	case DropUnroutable:
		return "unroutable"
	case DropTermDown:
		return "terminal-down"
	}
	return "none"
}

// SetFaultPlan arms a fault schedule. Events strike at the top of their
// cycle, before any flit moves, so seeded runs are exactly reproducible.
// Must be called before the first Step; the plan is validated against the
// network's topology. If the routing algorithm implements
// routing.FaultAware it is rebuilt after every permanent failure.
func (n *Network) SetFaultPlan(p *fault.Plan) error {
	if err := p.Validate(n.cfg.Topo); err != nil {
		return err
	}
	n.faultEvents = append([]fault.Event(nil), p.Events()...)
	n.faultNext = 0
	n.faultsArmed = true
	if n.linkState == nil {
		n.linkState = topology.NewLinkState(n.cfg.Topo)
	}
	if n.niDead == nil {
		n.niDead = make([]bool, len(n.nis))
	}
	n.faultAware, _ = n.alg.(routing.FaultAware)
	return nil
}

// LinkState returns the live link-state overlay, or nil when no fault plan
// is armed.
func (n *Network) LinkState() *topology.LinkState { return n.linkState }

// applyFaults strikes every event due at the current cycle.
func (n *Network) applyFaults() {
	permanent := false
	for n.faultNext < len(n.faultEvents) && n.faultEvents[n.faultNext].Cycle <= n.cycle {
		e := n.faultEvents[n.faultNext]
		n.faultNext++
		switch e.Kind {
		case fault.Transient:
			op := n.routers[e.Router].out[e.Port]
			if op.dead {
				continue // the link died first; nothing left to disturb
			}
			if until := e.Cycle + e.Duration - 1; until > op.faultUntil {
				op.faultUntil = until
			}
			op.faultCorrupt = e.Corrupt // on overlap the later event's mode wins
		case fault.LinkFail:
			if n.linkState.FailLink(e.Router, e.Port) {
				n.killLink(e.Router, e.Port)
				permanent = true
			}
		case fault.RouterFail:
			if !n.linkState.RouterFailed(e.Router) {
				n.killRouter(e.Router)
				permanent = true
			}
		}
	}
	if permanent {
		if n.faultAware != nil {
			n.faultAware.Rebuild(n.linkState)
		}
		n.sweepDeadVCs()
		n.purgeBroken()
		n.syncDerived(true) // the kills changed derived state even if no packet broke
	}
}

// killLink fail-stops both directions of the link at (r, p).
func (n *Network) killLink(r, p int) {
	op := n.routers[r].out[p]
	rev := n.routers[op.link.Router].out[op.link.Port]
	n.killPort(op, DropLinkFail)
	n.killPort(rev, DropLinkFail)
}

// killRouter fail-stops router r: every buffered packet is lost, every
// touching link dies, and the attached terminals go down with it.
func (n *Network) killRouter(r int) {
	n.linkState.FailRouter(r)
	rt := &n.routers[r]
	// Everything buffered inside the router is lost with it.
	for pi := range rt.in {
		ip := &rt.in[pi]
		for vi := range ip.vcs {
			vc := &ip.vcs[vi]
			markBroken(&n.brokenQ, vc.cur, DropRouterFail)
			for i := int32(0); i < vc.buf.count; i++ {
				markBroken(&n.brokenQ, vc.buf.at(i).Pkt, DropRouterFail)
			}
		}
	}
	for _, op := range rt.out {
		if op.isTerm {
			n.killPort(op, DropRouterFail) // flits on the ejection wire are lost
			continue
		}
		if op.dead {
			continue
		}
		rev := n.routers[op.link.Router].out[op.link.Port]
		n.killPort(op, DropRouterFail)
		n.killPort(rev, DropRouterFail)
	}
	for t := range n.nis {
		if n.nis[t].up.link.Router == r {
			n.killNI(t)
		}
	}
}

// killPort fail-stops one directed link endpoint: queued events are
// destroyed (flits on a dead wire are lost) and all allocation is refused
// from now on. The downstream input port loses its credit channel when
// applyFaults rebuilds the derived state.
func (n *Network) killPort(op *outputPort, why DropReason) {
	if op.dead {
		return
	}
	op.dead = true
	for op.wire.n > 0 {
		we := op.wire.pop()
		n.stats.FlitsLost++
		markBroken(&n.brokenQ, we.flit.Pkt, why)
	}
	for op.creditQ.n > 0 {
		op.creditQ.pop()
	}
	clear(op.credits)
	clear(op.owner)
}

// killNI fail-stops a terminal whose router died: in-flight streams lose
// their packets, queued packets are refused, and injection is rejected
// from now on (TryInject returns ErrTerminalDown).
func (n *Network) killNI(t int) {
	q := &n.nis[t]
	if q.up.dead {
		return
	}
	for i := range q.streams {
		markBroken(&n.brokenQ, q.streams[i].pkt, DropTermDown)
	}
	n.killPort(&q.up, DropTermDown)
	for q.queued() > 0 {
		p := q.pop()
		n.stats.PacketsUnroutable++
		if n.onDrop != nil {
			n.onDrop(p, DropTermDown)
		}
	}
}

// sweepDeadVCs visits every input VC routed toward a now-dead output port.
// A VC that has not yet sent its head flit is reset to idle so the packet
// re-routes over the rebuilt tables; a VC caught mid-packet has lost flits
// to the dead wire, so its packet is broken.
func (n *Network) sweepDeadVCs() {
	for r := range n.routers {
		rt := &n.routers[r]
		for pi := range rt.in {
			ip := &rt.in[pi]
			for vi := range ip.vcs {
				vc := &ip.vcs[vi]
				if vc.state == vcIdle || !rt.out[vc.outPort].dead {
					continue
				}
				front := vc.buf.peek()
				if front != nil && front.Pkt == vc.cur && front.Kind.IsHead() {
					// Nothing has crossed the dead link yet: re-route.
					// Ownership on the dead port was already cleared by
					// killPort.
					vc.cur = nil
					vc.state = vcIdle
					vc.waitCycles = 0
					continue
				}
				markBroken(&n.brokenQ, vc.cur, DropLinkFail)
			}
		}
	}
}

// markBroken appends a packet to q, a purge queue, and records why it
// breaks; the first cause wins. The fault paths queue on the network's
// brokenQ; a tick span queues on its own sink (only the span holding the
// packet's head flit can reach it, so the flag write has a single
// writer), folded into brokenQ in span order.
func markBroken(q *[]*Packet, p *Packet, why DropReason) {
	if p == nil || p.broken {
		return
	}
	p.broken = true
	p.dropWhy = why
	*q = append(*q, p)
}

// purgeBroken removes every marked packet from the network, then
// rebuilds the derived state (flit counters, candidate and event masks,
// credit masks, severed credit channels) from a rescan, so the purge and
// the faults before it edit primary state only.
func (n *Network) purgeBroken() {
	if len(n.brokenQ) == 0 {
		return
	}
	for i := 0; i < len(n.brokenQ); i++ {
		n.purgePacket(n.brokenQ[i])
	}
	n.brokenQ = n.brokenQ[:0]
	n.syncDerived(true)
}

// purgePacket removes every remaining trace of a broken packet: its NI
// stream, its wire events, its buffered flits and its VC allocations.
// Buffer slots freed downstream return their credits to upstream feeders
// whose link is still alive, preserving credit conservation; credits of
// dead links died with them.
func (n *Network) purgePacket(p *Packet) {
	q := &n.nis[p.Src]
	k := 0
	for i := range q.streams {
		st := q.streams[i]
		if st.pkt == p {
			if st.vc < len(q.up.owner) && q.up.owner[st.vc] == p {
				q.up.owner[st.vc] = nil
			}
			continue
		}
		q.streams[k] = st
		k++
	}
	q.streams = q.streams[:k]
	n.filterWire(&q.up, p)
	for r := range n.routers {
		rt := &n.routers[r]
		for pi := range rt.in {
			n.purgeInputPort(rt, pi, p)
		}
		for _, op := range rt.out {
			n.filterWire(op, p)
		}
	}
	if p.dropWhy == DropUnroutable || p.dropWhy == DropTermDown {
		n.stats.PacketsUnroutable++
	} else {
		n.stats.PacketsLost++
	}
	if n.onDrop != nil {
		n.onDrop(p, p.dropWhy)
	}
}

// purgeInputPort removes p's flits from one input port, returns their
// buffer credits and frees the VCs routing or sending p.
func (n *Network) purgeInputPort(rt *router, pi int, p *Packet) {
	ip := &rt.in[pi]
	for vi := range ip.vcs {
		vc := &ip.vcs[vi]
		if vc.buf.count > 0 {
			removed := vc.buf.removePacket(p)
			n.stats.FlitsLost += int64(removed)
			// The freed buffer slots return their credits to the feeder,
			// unless the feeding link died (its credits died with it).
			if up := ip.upstream; up != nil && !up.dead {
				for i := 0; i < removed; i++ {
					up.creditQ.push(creditEvt{vc: vi, at: n.cycle + 1})
				}
			}
		}
		if vc.cur == p {
			out := rt.out[vc.outPort]
			if vc.state == vcActive && int(vc.outVC) < len(out.owner) && out.owner[vc.outVC] == p {
				out.owner[vc.outVC] = nil
			}
			vc.cur = nil
			vc.state = vcIdle
			vc.waitCycles = 0
		}
	}
}

// filterWire removes p's flits from an output port's wire queue,
// returning their buffer credits immediately (the flits never reach the
// downstream buffer). Order of the surviving events is preserved.
func (n *Network) filterWire(op *outputPort, p *Packet) {
	if op.wire.n == 0 {
		return
	}
	hit := false
	for i := 0; i < op.wire.n; i++ {
		if op.wire.at(i).flit.Pkt == p {
			hit = true
			break
		}
	}
	if !hit {
		return
	}
	keep := make([]wireEvt, 0, op.wire.n)
	for op.wire.n > 0 {
		we := op.wire.pop()
		if we.flit.Pkt != p {
			keep = append(keep, we)
			continue
		}
		n.stats.FlitsLost++
		if op.credits != nil {
			op.credits[we.outVC]++
		}
	}
	for _, we := range keep {
		op.wire.push(we)
	}
}

// dropWireFlit destroys a flit at the moment of link delivery (transient
// drop or checksum-detected corruption). The buffer slot it reserved is
// credited back immediately; the packet is broken, and the purge after
// delivery removes it and rebuilds the flit count and credit mask.
func (n *Network) dropWireFlit(op *outputPort, we wireEvt, why DropReason) {
	if why == DropCorrupt {
		n.stats.FlitsCorrupted++
	} else {
		n.stats.FlitsDroppedFault++
	}
	if op.credits != nil {
		op.credits[we.outVC]++
	}
	markBroken(&n.brokenQ, we.flit.Pkt, why)
}

// csumFlip is the bit pattern a corrupting transient fault XORs into a
// crossing flit's checksum, modeling an in-flight header bit error.
const csumFlip = 0xA5A5

// headerChecksum hashes the flit header fields (packet ID, endpoints,
// sequence number, kind) into 16 bits. Only fault-armed networks compute
// and verify it, so fault-free runs pay nothing.
func headerChecksum(f *Flit) uint16 {
	h := f.Pkt.ID*0x9E3779B97F4A7C15 ^
		uint64(uint32(f.Seq))<<32 ^ uint64(f.Kind)<<24 ^
		uint64(uint32(f.Pkt.Src))<<8 ^ uint64(uint32(f.Pkt.Dst))
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return uint16(h ^ h>>16 ^ h>>32 ^ h>>48)
}

// flitCsum is the checksum emitFlit stamps on f: its header checksum on
// a fault-armed network, 0 otherwise.
func (n *Network) flitCsum(f *Flit) uint16 {
	if n.faultsArmed {
		return headerChecksum(f)
	}
	return 0
}

// StalledDump renders the state of up to maxRouters routers still holding
// flits. It backs the deadlock watchdog's error message and the /healthz
// stall report of the live-introspection server.
func (n *Network) StalledDump(maxRouters int) string {
	var b []byte
	more := 0
	for r := range n.routers {
		if n.inFlits[r] == 0 {
			continue
		}
		if maxRouters == 0 {
			more++
			continue
		}
		maxRouters--
		b = append(b, n.DumpRouter(r)...)
	}
	if more > 0 {
		b = append(b, fmt.Sprintf("... and %d more routers holding flits\n", more)...)
	}
	return string(b)
}
