package noc

import (
	"fmt"
	"math"
)

// CheckInvariants audits the network's state and returns the first
// violation found. It is O(network size) and meant for tests, debugging
// and RestoreSnapshot's acceptance check, not the hot path; a state that
// passes is one Step can run. Checked invariants:
//
//   - Derived state equals a rescan of the primary state (syncDerived).
//   - Credit conservation: for every live link, the upstream credits plus
//     credits in flight plus flits on the wire and in the downstream VC
//     buffer equal the buffer depth, with no credit count negative. A dead
//     port keeps no credits, owners or events.
//   - Ranges: round-robin pointers, VC states, output ports, VC classes,
//     downstream and event VCs, and event times (the next cycle or the one
//     after, in FIFO order).
//   - An active VC whose packet is unbroken owns its downstream VC.
//   - The packet graph (checkPackets).
//   - The clock is not negative and the deadlock watchdog has not fired.
func (n *Network) CheckInvariants() error {
	if err := n.syncDerived(false); err != nil {
		return err
	}
	if w := int64(n.cfg.WatchdogCycles); n.cycle < 0 || n.lastMove > n.cycle || (w > 0 && n.flitsInNetwork > 0 && n.cycle-n.lastMove > w) {
		return fmt.Errorf("last flit move at cycle %d, now cycle %d", n.lastMove, n.cycle)
	}
	classes := n.alg.NumVCClasses()
	for r := range n.routers {
		rt := &n.routers[r]
		for pi := range rt.in {
			ip := &rt.in[pi]
			if ip.rr < 0 || ip.rr >= len(ip.vcs) {
				return fmt.Errorf("router %d in[%d]: round-robin pointer %d of %d VCs", r, pi, ip.rr, len(ip.vcs))
			}
			for vi := range ip.vcs {
				if err := checkVC(rt, &ip.vcs[vi], classes); err != nil {
					return fmt.Errorf("router %d in[%d].vc[%d]: %w", r, pi, vi, err)
				}
			}
		}
		for p, op := range rt.out {
			if err := n.checkPort(op); err != nil {
				return fmt.Errorf("router %d port %d: %w", r, p, err)
			}
		}
	}
	for t := range n.nis {
		if err := n.checkPort(&n.nis[t].up); err != nil {
			return fmt.Errorf("ni %d: %w", t, err)
		}
	}
	return n.checkPackets()
}

// deriver either assigns rescanned values or compares against them.
type deriver struct {
	fix bool
	err error
}

// derive assigns want, or records a mismatch with the maintained value;
// at locates it (router, port, VC).
func derive[T comparable](d *deriver, have *T, want T, what string, at ...int) {
	if d.fix {
		*have = want
	} else if d.err == nil && *have != want {
		d.err = fmt.Errorf("%s %v: have %v, rescan gives %v", what, append([]int(nil), at...), *have, want)
	}
}

// syncDerived recomputes the state the kernel maintains incrementally —
// per-router flit counts and occupied-port and pending-event masks,
// per-port flit counts and candidate masks, the headArrive mirror of each
// non-empty VC, credit masks, upstream pointers (nil where the feeding
// port is dead), the fail-stopped terminals and the flit and
// queued-packet totals — from a rescan of the primary state. With fix set it assigns the rescan, which is how
// RestoreSnapshot rebuilds derived state; otherwise it returns the first
// maintained value that disagrees.
func (n *Network) syncDerived(fix bool) error {
	d := &deriver{fix: fix}
	flits, queued := 0, 0
	for r := range n.routers {
		rt := &n.routers[r]
		var total int32
		var occupied, pending uint32
		for pi := range rt.in {
			ip := &rt.in[pi]
			held := 0
			var ra, sa uint32
			for vi := range ip.vcs {
				vc := &ip.vcs[vi]
				head := vc.buf.peek()
				if head == nil {
					continue
				}
				held += vc.buf.len()
				if vc.state == vcActive {
					sa |= 1 << vi
				} else {
					ra |= 1 << vi
				}
				derive(d, &vc.headArrive, head.arrive, "headArrive of router, port, VC", r, pi, vi)
			}
			derive(d, &ip.flits, held, "flit counter of router, port", r, pi)
			derive(d, &ip.raMask, ra, "raMask of router, port", r, pi)
			derive(d, &ip.saMask, sa, "saMask of router, port", r, pi)
			if held > 0 {
				occupied |= 1 << pi
			}
			total += int32(held)
		}
		for pi, op := range rt.out {
			if op.wire.n+op.creditQ.n > 0 {
				pending |= 1 << pi
			}
			flits += op.wire.n
			derive(d, &op.creditMask, creditMaskOf(op), "creditMask of router, output", r, pi)
			if !op.isTerm && !op.bornDead() {
				derive(d, &n.routers[op.link.Router].in[op.link.Port].upstream, liveFeeder(op),
					"upstream of router, port", op.link.Router, op.link.Port)
			}
		}
		derive(d, &n.inFlits[r], total, "flit counter of router", r)
		derive(d, &n.portMask[r], occupied, "portMask of router", r)
		derive(d, &n.evMask[r], pending, "evMask of router", r)
		flits += int(total)
	}
	for t := range n.nis {
		q := &n.nis[t]
		flits += q.up.wire.n
		queued += q.queued()
		derive(d, &q.up.creditMask, creditMaskOf(&q.up), "creditMask of terminal", t)
		if n.niDead != nil { // only fault-armed networks have it
			derive(d, &n.niDead[t], q.up.dead, "niDead of terminal", t)
		}
		derive(d, &n.routers[q.up.link.Router].in[q.up.link.Port].upstream, liveFeeder(&q.up),
			"upstream of router, port", q.up.link.Router, q.up.link.Port)
	}
	derive(d, &n.flitsInNetwork, flits, "flits in network")
	derive(d, &n.queuedPackets, queued, "queued packets")
	return d.err
}

// creditMaskOf is the credit mask the kernel maintains for op: bit v set
// iff downstream VC v holds a credit. A port without credits is open
// (sinks consume unconditionally, and an unwired port keeps its
// construction value) unless it is a killed terminal port, which killPort
// closes.
func creditMaskOf(op *outputPort) uint32 {
	if op.credits == nil {
		if op.isTerm && op.dead {
			return 0
		}
		return ^uint32(0)
	}
	var m uint32
	for v, c := range op.credits {
		if c > 0 {
			m |= 1 << v
		}
	}
	return m
}

// liveFeeder is the upstream pointer of the input port op feeds: op
// itself, or nil once op is dead (killPort severs the credit channel).
func liveFeeder(op *outputPort) *outputPort {
	if op.dead {
		return nil
	}
	return op
}

// checkVC audits one input VC's allocation state.
func checkVC(rt *router, vc *inVC, classes int) error {
	if vc.state > vcActive {
		return fmt.Errorf("unknown state %d", vc.state)
	}
	if vc.state == vcIdle {
		return nil
	}
	if vc.cur == nil || vc.outPort < 0 || int(vc.outPort) >= len(rt.out) || vc.class < 0 || int(vc.class) >= classes {
		return fmt.Errorf("state %d: packet set %v, output port %d of %d, VC class %d of %d",
			vc.state, vc.cur != nil, vc.outPort, len(rt.out), vc.class, classes)
	}
	if vc.state != vcActive {
		return nil
	}
	out := rt.out[vc.outPort]
	if vc.outVC < 0 || int(vc.outVC) >= out.downVCs {
		return fmt.Errorf("downstream VC %d of %d", vc.outVC, out.downVCs)
	}
	if !out.isTerm && !out.dead && !vc.cur.broken && out.owner[vc.outVC] != vc.cur {
		return fmt.Errorf("sends packet %d on downstream VC %d of port %d, which it does not own", vc.cur.ID, vc.outVC, vc.outPort)
	}
	return nil
}

// checkPort audits one output port: its event VCs and times (the next
// cycle or the one after, in FIFO order), emptiness once it is dead, and,
// while it feeds a live input port, credit conservation: per downstream
// VC, the credits plus credits and flits in flight plus buffered flits
// equal the buffer depth, with no credit count negative.
func (n *Network) checkPort(op *outputPort) error {
	if (op.bornDead() && !op.dead) || op.rrVC < 0 {
		return fmt.Errorf("port unwired %v, dead %v, VC round-robin pointer %d", op.bornDead(), op.dead, op.rrVC)
	}
	var inFlight [32]int
	prev := n.cycle + 1
	for i := 0; i < op.wire.n+op.creditQ.n; i++ {
		if i == op.wire.n {
			prev = n.cycle + 1 // credit events form a FIFO of their own
		}
		var vc int
		var at int64
		if i < op.wire.n {
			we := op.wire.at(i)
			vc, at = we.outVC, we.at
		} else {
			ce := op.creditQ.at(i - op.wire.n)
			vc, at = ce.vc, ce.at
		}
		if vc < 0 || vc >= op.downVCs || at < prev || at > n.cycle+2 {
			return fmt.Errorf("event %d (%d wire, %d credit): VC %d of %d, due at %d (now %d, previous %d)",
				i, op.wire.n, op.creditQ.n, vc, op.downVCs, at, n.cycle, prev)
		}
		inFlight[vc]++
		prev = at
	}
	if op.dead {
		for v := range op.credits {
			if op.credits[v] != 0 || op.owner[v] != nil {
				return fmt.Errorf("dead port keeps VC %d: %d credits, owner %v", v, op.credits[v], op.owner[v] != nil)
			}
		}
		if op.wire.n+op.creditQ.n > 0 {
			return fmt.Errorf("dead port holds %d wire and %d credit events", op.wire.n, op.creditQ.n)
		}
		return nil
	}
	if op.isTerm {
		return nil
	}
	down := n.routers[op.link.Router].in[op.link.Port].vcs
	for v, c := range op.credits {
		if buffered := down[v].buf.len(); c < 0 || c+inFlight[v]+buffered != op.downDepth {
			return fmt.Errorf("vc %d: %d credits + %d events in flight + %d buffered, want depth %d",
				v, c, inFlight[v], buffered, op.downDepth)
		}
	}
	return nil
}

// A flit stream is the flits headed for one input VC, oldest first: its
// buffer, then the flits on the wire toward it. An ejection wire is a
// stream of its own. Every flit in the network is in exactly one stream;
// streamKey names it by the VC, or else the ejection port.
type streamKey struct {
	vc *inVC
	ej *outputPort
}

type flitStream struct {
	key   streamKey
	r     int // router of key.vc
	flits []Flit
}

// run returns the sequence numbers of p's flits in s, which must ascend
// one by one and, outside ejection wires (where packets interleave), be
// contiguous; first and last report whether the run starts or ends s. A
// nil stream is empty.
func (s *flitStream) run(p *Packet) (lo, hi int, found, first, last bool, err error) {
	if s == nil {
		return
	}
	prev := 0
	for i := range s.flits {
		f := &s.flits[i]
		if f.Pkt != p {
			continue
		}
		seq := int(f.Seq)
		if !found {
			lo, found, first = seq, true, i == 0
		} else if seq != hi+1 || (s.key.vc != nil && i != prev+1) {
			return 0, 0, false, false, false, fmt.Errorf("flit %d follows flit %d out of order", seq, hi)
		}
		hi, prev, last = seq, i, i == len(s.flits)-1
	}
	return lo, hi, found, first, last, nil
}

// pktAudit is checkPackets' record of one packet.
type pktAudit struct {
	emitted  int         // flits the NI has sent
	streamVC int         // VC of its NI stream, or -1
	niRefs   int         // NI queue and stream entries
	flits    int         // flits in the network
	held     int         // non-idle VCs routing or sending it
	newest   *flitStream // the stream holding flit emitted-1
	purging  bool        // listed in brokenQ
}

// checkPackets audits the packet graph, so that a state that passes can
// be stepped without a panic:
//
//   - every referenced packet has endpoints in range, 1 <= NumFlits <=
//     MaxInt32, 0 <= received <= NumFlits, a VC class in range, and was
//     created no later than now;
//   - a packet is queued or streamed at most once, at its source NI; a
//     queued packet is unbroken, a stream's VC and next sequence number
//     are in range, and an unbroken stream owns its VC;
//   - each flit's sequence number, kind and checksum agree with emitFlit,
//     and an unbroken packet's flits in the network are exactly those
//     numbered [received, emitted), in worm order (checkWorm);
//   - brokenQ holds exactly the packets marked broken, once each.
func (n *Network) checkPackets() error {
	k := &walker{index: map[*Packet]int{}}
	n.walkBody(k)
	au := make([]pktAudit, len(k.table))
	classes := n.alg.NumVCClasses()
	for i, p := range k.table {
		if p.Src < 0 || p.Src >= len(n.nis) || p.Dst < 0 || p.Dst >= len(n.nis) ||
			p.NumFlits < 1 || p.NumFlits > math.MaxInt32 || p.received < 0 || p.received > p.NumFlits ||
			p.vcClass < 0 || p.vcClass >= classes || p.CreateCycle < 0 || p.CreateCycle > n.cycle {
			return fmt.Errorf("packet %d: %d->%d of %d terminals, %d of %d flits received, VC class %d of %d, created at cycle %d of %d",
				p.ID, p.Src, p.Dst, len(n.nis), p.received, p.NumFlits, p.vcClass, classes, p.CreateCycle, n.cycle)
		}
		au[i] = pktAudit{emitted: p.NumFlits, streamVC: -1}
	}
	for t := range n.nis {
		q := &n.nis[t]
		for _, p := range q.queue[q.qHead:] {
			if p.Src != t || p.broken {
				return fmt.Errorf("ni %d: queues packet %d (source %d, broken %v)", t, p.ID, p.Src, p.broken)
			}
			a := &au[k.index[p]]
			a.niRefs++
			a.emitted = 0
		}
		for _, st := range q.streams {
			p := st.pkt
			if p.Src != t || st.vc < 0 || st.vc >= q.up.downVCs || st.nextSeq < 1 || st.nextSeq >= p.NumFlits ||
				(!p.broken && q.up.owner[st.vc] != p) {
				return fmt.Errorf("ni %d: streams packet %d (source %d) on VC %d of %d from flit %d of %d",
					t, p.ID, p.Src, st.vc, q.up.downVCs, st.nextSeq, p.NumFlits)
			}
			a := &au[k.index[p]]
			a.niRefs++
			a.emitted, a.streamVC = st.nextSeq, st.vc
		}
	}

	streams := map[streamKey]*flitStream{}
	var flitErr error
	add := func(key streamKey, r int, f Flit) {
		s := streams[key]
		if s == nil {
			s = &flitStream{key: key, r: r}
			streams[key] = s
		}
		s.flits = append(s.flits, f)
		p, seq := f.Pkt, int(f.Seq)
		a := &au[k.index[p]]
		if flitErr == nil && (seq < 0 || seq >= p.NumFlits || f.Kind != flitKind(p.NumFlits, seq) ||
			f.Csum != n.flitCsum(&f) || (!p.broken && (seq < p.received || seq >= a.emitted))) {
			flitErr = fmt.Errorf("packet %d: flit %d (%s, checksum %#x) of %d, %d emitted and %d received",
				p.ID, seq, f.Kind, f.Csum, p.NumFlits, a.emitted, p.received)
		}
		a.flits++
		if seq == a.emitted-1 {
			a.newest = s
		}
	}
	for r := range n.routers {
		rt := &n.routers[r]
		for pi := range rt.in {
			for vi := range rt.in[pi].vcs {
				vc := &rt.in[pi].vcs[vi]
				if vc.state != vcIdle {
					au[k.index[vc.cur]].held++
				}
				for i := int32(0); i < vc.buf.count; i++ {
					add(streamKey{vc: vc}, r, *vc.buf.at(i))
				}
			}
		}
	}
	wire := func(op *outputPort) {
		for i := 0; i < op.wire.n; i++ {
			if we := op.wire.at(i); op.isTerm {
				add(streamKey{ej: op}, op.router, we.flit)
			} else {
				add(streamKey{vc: &n.routers[op.link.Router].in[op.link.Port].vcs[we.outVC]}, op.link.Router, we.flit)
			}
		}
	}
	for t := range n.nis {
		wire(&n.nis[t].up)
	}
	for r := range n.routers {
		for _, op := range n.routers[r].out {
			wire(op)
		}
	}
	if flitErr != nil {
		return flitErr
	}

	broken := 0
	for i, p := range k.table {
		a := &au[i]
		if a.niRefs > 1 {
			return fmt.Errorf("packet %d: %d NI queue and stream entries", p.ID, a.niRefs)
		}
		if p.broken {
			broken++ // a lost flit leaves gaps until the purge
			continue
		}
		if a.flits != a.emitted-p.received {
			return fmt.Errorf("packet %d: %d flits in the network, %d emitted and %d received", p.ID, a.flits, a.emitted, p.received)
		}
		if err := n.checkWorm(p, a, streams); err != nil {
			return fmt.Errorf("packet %d: %w", p.ID, err)
		}
	}
	for i, p := range n.brokenQ {
		a := &au[k.index[p]]
		if !p.broken || a.purging {
			return fmt.Errorf("brokenQ[%d]: packet %d (broken %v) listed twice or unbroken", i, p.ID, p.broken)
		}
		a.purging = true
	}
	if broken != len(n.brokenQ) {
		return fmt.Errorf("%d packets marked broken, %d queued for purging", broken, len(n.brokenQ))
	}
	return nil
}

// checkWorm follows an unbroken packet's worm downstream from its
// upstream end — its NI stream, or else the stream holding its newest
// flit — through the VCs sending it. Its flits must appear in descending
// sequence order down to the next one its destination consumes: the head,
// or the ejection wire once the head has been consumed. A VC sending the
// packet holds its flits at the front of its stream, and the stream of a
// downstream VC the packet owns holds them at the back. Every VC routing
// or sending the packet must lie on that path.
func (n *Network) checkWorm(p *Packet, a *pktAudit, streams map[streamKey]*flitStream) error {
	var (
		key   streamKey
		r     int
		owned bool // key's VC belongs to p
	)
	switch {
	case a.streamVC >= 0:
		up := &n.nis[p.Src].up
		r, owned = up.link.Router, true
		key.vc = &n.routers[r].in[up.link.Port].vcs[a.streamVC]
	case a.emitted == p.received:
		if a.held > 0 {
			return fmt.Errorf("%d VCs route or send it, but it has no flit in the network", a.held)
		}
		return nil
	case a.newest == nil:
		return fmt.Errorf("flit %d missing", a.emitted-1)
	default:
		key, r = a.newest.key, a.newest.r
	}
	expect, held := a.emitted-1, 0
	for {
		lo, hi, found, first, last, err := streams[key].run(p)
		if err != nil {
			return err
		}
		if found {
			if hi != expect || (owned && !last) {
				return fmt.Errorf("flits %d..%d found where flit %d was due (owned VC: %v)", lo, hi, expect, owned)
			}
			expect = lo - 1
		}
		vc := key.vc
		if vc == nil {
			if expect >= p.received {
				return fmt.Errorf("flits %d..%d missing before the ejection wire", p.received, expect)
			}
			break
		}
		if expect < 0 {
			// The head is in the network: the worm ends at its VC, which
			// may route or send the packet only with the head buffered at
			// its front.
			if first && vc.state != vcIdle {
				if vc.cur != p || vc.buf.count == 0 {
					return fmt.Errorf("head flit at the front of a VC allocated to another packet")
				}
				held++
			}
			break
		}
		if vc.state != vcActive || vc.cur != p || (found && !first) {
			return fmt.Errorf("flit %d is due downstream of a VC that is not sending the packet", expect)
		}
		if held++; held > a.held {
			return fmt.Errorf("worm path loops")
		}
		out := n.routers[r].out[vc.outPort]
		if out.dead {
			return fmt.Errorf("worm runs into a dead port")
		}
		// Ejection ports grant no VC ownership: packets interleave there.
		if owned = !out.isTerm; owned {
			r, key = out.link.Router, streamKey{vc: &n.routers[out.link.Router].in[out.link.Port].vcs[vc.outVC]}
		} else {
			key = streamKey{ej: out}
		}
	}
	if held != a.held {
		return fmt.Errorf("%d VCs route or send it, %d of them on its worm", a.held, held)
	}
	return nil
}

// DumpRouter renders one router's live state — per input port, each VC's
// occupancy, state and allocation — for interactive debugging of stuck
// networks alongside CheckInvariants and the packet tracer.
func (n *Network) DumpRouter(r int) string {
	rt := &n.routers[r]
	var b []byte
	b = append(b, fmt.Sprintf("router %d (VCs=%d depth=%d wide=%v)\n",
		r, rt.cfg.VCs, rt.cfg.BufDepth, rt.cfg.Wide)...)
	states := [...]string{"idle", "waitVC", "active"}
	for pi := range rt.in {
		for vi := range rt.in[pi].vcs {
			vc := &rt.in[pi].vcs[vi]
			if vc.buf.len() == 0 && vc.state == vcIdle {
				continue
			}
			line := fmt.Sprintf("  in[%d].vc[%d]: %d flits, %s", pi, vi, vc.buf.len(), states[vc.state])
			switch vc.state {
			case vcWaitVC:
				line += fmt.Sprintf(" -> out[%d]", vc.outPort)
			case vcActive:
				line += fmt.Sprintf(" -> out[%d].vc[%d]", vc.outPort, vc.outVC)
			}
			if head := vc.buf.peek(); head != nil {
				line += fmt.Sprintf(" head=pkt%d/%s", head.Pkt.ID, head.Kind)
			}
			b = append(b, (line + "\n")...)
		}
	}
	for po, op := range rt.out {
		if op.dead || op.isTerm || op.credits == nil {
			continue
		}
		used := 0
		for vcI := 0; vcI < op.downVCs; vcI++ {
			used += op.downDepth - op.credits[vcI]
		}
		if used > 0 || op.wire.len() > 0 {
			b = append(b, fmt.Sprintf("  out[%d]: %d credits consumed, %d flits on wire\n",
				po, used, op.wire.len())...)
		}
	}
	return string(b)
}
