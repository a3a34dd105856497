package noc

import (
	"fmt"
	"math/bits"

	"heteronoc/internal/fault"
	"heteronoc/internal/par"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// niStream is one packet mid-injection. The first pass of inject emits one
// flit per stream; wide-link slots left over then carry the next flit of
// an active stream, a same-VC combined pair. The switch allocator combines
// same-VC pairs the same way (its repeat rounds may grant the next flit of
// the VC that just sent).
type niStream struct {
	pkt     *Packet
	nextSeq int
	vc      int
}

// ni is a network interface: the injection queue and upstream-side state of
// one terminal. On a wide local link the NI drives up to two concurrent
// packet streams on distinct VCs, mirroring the router-side flit combining.
type ni struct {
	term    int
	up      outputPort
	queue   []*Packet
	qHead   int
	streams []niStream
}

func (q *ni) queued() int { return len(q.queue) - q.qHead }

func (q *ni) pop() *Packet {
	p := q.queue[q.qHead]
	q.queue[q.qHead] = nil
	q.qHead++
	if q.qHead > 64 && q.qHead*2 >= len(q.queue) {
		q.queue = append(q.queue[:0], q.queue[q.qHead:]...)
		q.qHead = 0
	}
	return p
}

// Network is a running simulation instance.
type Network struct {
	cfg     Config
	alg     routing.Algorithm
	escaper routing.Escaper
	routers []router
	nis     []ni

	// Active-set scheduling state in structure-of-arrays form, one element
	// per router. inFlits counts flits buffered across a router's input
	// VCs; the allocation stages and the occupancy accumulator skip routers
	// holding nothing. portMask has a bit set for every input port with
	// buffered flits, so those stages iterate set bits instead of probing
	// every port. evMask has a bit set for every output port with queued
	// wire or credit events; deliver visits only those ports and clears the
	// bit once a port's queues drain. Hoisted out of the router structs so
	// scanning a mostly-idle 1024-router mesh touches a few cache lines of
	// dense counters instead of a thousand scattered structs. All three are
	// live state, not statistics: they survive ResetStats. In a sharded
	// cycle only the span holding a router writes its elements; other spans
	// send their updates through their sinks (shard.go).
	inFlits  []int32
	portMask []uint32
	evMask   []uint32

	cycle          int64
	lastMove       int64
	flitsInNetwork int
	queuedPackets  int
	nextPktID      uint64

	// Fault-injection state; all nil/false on fault-free networks, and the
	// hot path only pays a single faultsArmed branch per touch point.
	faultsArmed bool
	faultEvents []fault.Event
	faultNext   int
	linkState   *topology.LinkState
	faultAware  routing.FaultAware
	niDead      []bool
	brokenQ     []*Packet

	onPacket func(*Packet)
	onDrop   func(*Packet, DropReason)
	onCycle  func(cycle int64)
	tracer   *FlitTracer
	stats    Stats

	// Causal latency attribution (attrib.go): the always-on counter path
	// toggle and the terminal→router map used to charge queue/serialization
	// cycles to endpoint routers at sink time.
	atrOn      bool
	termRouter []int32

	// Cycle sharding (see shard.go). whole is the one span covering the
	// network, the sequential kernel; the pool, its spans and the phase
	// functions it runs exist only after SetShardWorkers.
	whole       [1]tickFx
	pool        *par.Pool
	shards      []tickFx
	deliverTick func(shard, lo, hi int)
	allocTick   func(shard, lo, hi int)

	// restored marks a network RestoreSnapshot has written into (whether
	// or not the restore succeeded); it refuses a second restore.
	restored bool
}

// New builds and validates a network.
func New(cfg Config) (*Network, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, alg: cfg.Routing}
	n.escaper, _ = cfg.Routing.(routing.Escaper)
	topo := cfg.Topo
	n.routers = make([]router, topo.NumRouters())
	n.inFlits = make([]int32, topo.NumRouters())
	n.portMask = make([]uint32, topo.NumRouters())
	n.evMask = make([]uint32, topo.NumRouters())
	for r := range n.routers {
		rt := &n.routers[r]
		rt.id = r
		rt.cfg = cfg.Routers[r]
		radix := topo.Radix(r)
		if radix > 31 || rt.cfg.VCs > 31 {
			return nil, fmt.Errorf("noc: router %d radix %d / VCs %d exceed the 31-wide active-set masks", r, radix, rt.cfg.VCs)
		}
		rt.in = make([]inputPort, radix)
		rt.out = make([]*outputPort, radix)
		rt.portSent = make([]int8, radix)
		rt.outLeft = make([]int8, radix)
		rt.outSent = make([]int8, radix)
		rt.outSlots = make([]int8, radix)
		// Contiguous backing stores: a router's output ports, input VCs,
		// buffer slots and event queues each live in one allocation, so the
		// per-cycle stages walk dense memory instead of chasing per-port
		// allocations. The event arenas hold each queue's steady-state
		// maximum (links add at most two flits per cycle with a two-cycle
		// delay, credits mature in one); evq grows past the arena on its own
		// if that bound is ever exceeded.
		ops := make([]outputPort, radix)
		vcs := make([]inVC, radix*rt.cfg.VCs)
		slots := make([]Flit, radix*rt.cfg.VCs*rt.cfg.BufDepth)
		wireArena := make([]wireEvt, radix*4)
		creditArena := make([]creditEvt, radix*4)
		// The downstream-VC bookkeeping (credits, owners) of all the router's
		// network ports shares two arenas, sliced per port below, instead of
		// two allocations per port.
		totalDownVCs := 0
		for p := 0; p < radix; p++ {
			if link, ok := topo.Neighbor(r, p); ok {
				totalDownVCs += cfg.Routers[link.Router].VCs
			}
		}
		credArena := make([]int, totalDownVCs)
		ownerArena := make([]*Packet, totalDownVCs)
		credOff := 0
		for p := 0; p < radix; p++ {
			rt.in[p].vcs = vcs[p*rt.cfg.VCs : (p+1)*rt.cfg.VCs]
			for v := range rt.in[p].vcs {
				off := (p*rt.cfg.VCs + v) * rt.cfg.BufDepth
				rt.in[p].vcs[v].buf = ring{buf: slots[off : off+rt.cfg.BufDepth]}
				rt.in[p].vcs[v].idx = uint8(v)
			}
			rt.bufSlots += rt.cfg.VCs * rt.cfg.BufDepth
			op := &ops[p]
			op.router, op.port, op.slots = r, p, cfg.LinkSlots(r, p)
			op.wire.buf = wireArena[p*4 : (p+1)*4]
			op.creditQ.buf = creditArena[p*4 : (p+1)*4]
			rt.outSlots[p] = int8(op.slots)
			rt.outLeft[p] = int8(op.slots) // rest value; see switchAllocate
			if link, ok := topo.Neighbor(r, p); ok {
				op.link = link
				down := cfg.Routers[link.Router]
				op.downVCs = down.VCs
				op.downDepth = down.BufDepth
				end := credOff + down.VCs
				op.credits = credArena[credOff:end:end]
				for v := range op.credits {
					op.credits[v] = down.BufDepth
				}
				op.owner = ownerArena[credOff:end:end]
				credOff = end
			} else if term, ok := topo.PortTerminal(r, p); ok {
				op.isTerm = true
				op.term = term
				op.downVCs = 1
			} else {
				op.dead = true
			}
			rt.out[p] = op
		}
	}
	// Network interfaces.
	n.nis = make([]ni, topo.NumTerminals())
	n.termRouter = make([]int32, topo.NumTerminals())
	n.atrOn = true
	for t := range n.nis {
		q := &n.nis[t]
		q.term = t
		r, p := topo.TerminalRouter(t)
		n.termRouter[t] = int32(r)
		down := cfg.Routers[r]
		q.up = outputPort{
			router:    -1,
			port:      -1,
			link:      topology.Link{Router: r, Port: p},
			slots:     cfg.LinkSlots(r, p),
			downVCs:   down.VCs,
			downDepth: down.BufDepth,
			credits:   make([]int, down.VCs),
			owner:     make([]*Packet, down.VCs),
		}
		for v := range q.up.credits {
			q.up.credits[v] = down.BufDepth
		}
		q.up.wire.buf = make([]wireEvt, 4)
		q.up.creditQ.buf = make([]creditEvt, 4)
	}
	n.syncDerived(true) // credit masks and upstream (credit return) pointers
	n.whole[0] = tickFx{n: n, hi: len(n.routers), niHi: len(n.nis)}
	return n, nil
}

// SetOnPacket registers a callback invoked when a packet's tail flit is
// consumed at its destination terminal.
func (n *Network) SetOnPacket(fn func(*Packet)) { n.onPacket = fn }

// SetOnDrop registers a callback invoked when a packet is purged from the
// network after a fault destroyed one of its flits or severed its route,
// with the reason. Stats only counts the losses; the callback names each
// packet and its DropReason.
func (n *Network) SetOnDrop(fn func(*Packet, DropReason)) { n.onDrop = fn }

// SetOnCycle registers a callback invoked at the end of every successful
// Step, after all per-cycle statistics have been accumulated. The sampler
// (sample.go) and live-introspection snapshots hang off this hook; when nil
// the hot path pays one branch per cycle.
func (n *Network) SetOnCycle(fn func(cycle int64)) { n.onCycle = fn }

// Config returns the network configuration (read-only).
func (n *Network) Config() *Config { return &n.cfg }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Inject queues a packet at its source terminal. The packet's ID and
// CreateCycle are assigned here; Src, Dst and NumFlits must be set.
// Injection bugs panic; callers that want errors use TryInject.
func (n *Network) Inject(p *Packet) {
	if err := n.TryInject(p); err != nil {
		panic(err)
	}
}

// TryInject is Inject with error returns instead of panics, so traffic
// generators and the CMP layer surface bad endpoints as test failures
// rather than crashes. On fault-injected networks it additionally refuses
// packets from a fail-stopped terminal (ErrTerminalDown) and, when the
// routing algorithm is fault aware, packets to destinations severed from
// the source (wrapping routing.ErrUnreachable).
func (n *Network) TryInject(p *Packet) error {
	if p.Src < 0 || p.Src >= len(n.nis) || p.Dst < 0 || p.Dst >= len(n.nis) {
		return fmt.Errorf("noc: inject with bad endpoints %d->%d", p.Src, p.Dst)
	}
	if p.NumFlits < 1 {
		return fmt.Errorf("noc: inject packet %d->%d with no flits", p.Src, p.Dst)
	}
	if n.faultsArmed {
		if n.niDead[p.Src] {
			return fmt.Errorf("noc: source terminal %d: %w", p.Src, ErrTerminalDown)
		}
		if n.niDead[p.Dst] {
			return fmt.Errorf("noc: destination terminal %d: %w", p.Dst, ErrTerminalDown)
		}
		if n.faultAware != nil {
			if err := n.faultAware.RouteError(p.Src, p.Dst); err != nil {
				return err
			}
		}
	}
	n.nextPktID++
	p.ID = n.nextPktID
	p.CreateCycle = n.cycle
	p.MinSlots = 1 << 30
	q := &n.nis[p.Src]
	q.queue = append(q.queue, p)
	n.queuedPackets++
	n.stats.PacketsInjected++
	return nil
}

// Quiesced reports whether no packets are queued or in flight.
func (n *Network) Quiesced() bool { return n.queuedPackets == 0 && n.flitsInNetwork == 0 }

// InFlight returns the number of flits currently inside the network.
func (n *Network) InFlight() int { return n.flitsInNetwork }

// Step advances the simulation by one cycle. It returns an error when the
// deadlock watchdog fires.
func (n *Network) Step() error {
	n.cycle++
	// Purge packets marked broken late last cycle (route-time losses),
	// then strike any faults due this cycle before flits move.
	n.purgeBroken()
	if n.faultsArmed {
		n.applyFaults()
	}
	fxs := n.spans()
	if len(fxs) == 1 {
		n.deliver(&fxs[0])
	} else {
		n.pool.ShardedTick(len(n.routers), n.deliverTick)
	}
	n.endDeliver(fxs)
	n.purgeBroken() // packets that lost a flit in this cycle's deliveries
	if len(fxs) == 1 {
		n.allocate(&fxs[0])
	} else {
		n.pool.ShardedTick(len(n.routers), n.allocTick)
	}
	n.endAllocate(fxs)
	n.stats.Cycles++
	if n.onCycle != nil {
		n.onCycle(n.cycle)
	}
	if w := n.cfg.WatchdogCycles; w > 0 && n.flitsInNetwork > 0 && n.cycle-n.lastMove > int64(w) {
		return fmt.Errorf("noc: deadlock watchdog: no flit moved for %d cycles at cycle %d (%d flits in flight)\n%s",
			w, n.cycle, n.flitsInNetwork, n.StalledDump(4))
	}
	return nil
}

// deliver is the first phase of a cycle for one span: it moves matured
// flits off the span's link wires into downstream buffers or sinks, and
// matured credits back to upstream counters. Only routers with queued
// events are visited (in ascending router order, so arrival order is
// identical to a full scan); idle routers cost one counter check. The
// span's NIs follow.
func (n *Network) deliver(fx *tickFx) {
	for i, m := range n.evMask[fx.lo:fx.hi] {
		if m == 0 {
			continue // dense scan: an idle router costs one word read
		}
		r := fx.lo + i
		rt := &n.routers[r]
		for ; m != 0; m &= m - 1 {
			pi := bits.TrailingZeros32(m)
			op := rt.out[pi]
			n.deliverPort(op, fx)
			if op.creditQ.n == 0 && op.wire.n == 0 {
				n.evMask[r] &^= 1 << pi
			}
		}
	}
	for t := fx.niLo; t < fx.niHi; t++ {
		up := &n.nis[t].up
		if up.wire.n > 0 || up.creditQ.n > 0 {
			n.deliverPort(up, fx)
		}
	}
}

// deliverPort pops matured events off one output port's FIFO queues.
// Events mature in enqueue order (fixed +1/+2 delays), so the matured set
// is always a prefix of each queue. The credit loop indexes the queue
// directly with local cursors and writes back once: nothing reached from
// here (credit bookkeeping, sinks) ever pushes onto this port's queues, so
// the cursors cannot go stale.
func (n *Network) deliverPort(op *outputPort, fx *tickFx) {
	cyc := n.cycle
	if cq := &op.creditQ; cq.n > 0 {
		head, cnt, nb := cq.head, cq.n, len(cq.buf)
		for cnt > 0 && cq.buf[head].at <= cyc {
			vc := cq.buf[head].vc
			head++
			if head == nb {
				head = 0
			}
			cnt--
			if op.credits != nil {
				op.credits[vc]++
				if op.credits[vc] > op.downDepth {
					panic("noc: credit overflow")
				}
				op.creditMask |= 1 << vc
			}
		}
		cq.head, cq.n = head, cnt
	}
	for op.wire.n > 0 && op.wire.front().at <= cyc {
		we := op.wire.pop()
		fx.moved = true
		if n.faultsArmed {
			if op.faultUntil >= cyc {
				if !op.faultCorrupt {
					n.dropWireFlit(op, we, DropTransient)
					continue
				}
				we.flit.Csum ^= csumFlip // bit error in flight
			}
			if we.flit.Csum != headerChecksum(&we.flit) {
				n.dropWireFlit(op, we, DropCorrupt)
				continue
			}
		}
		f := we.flit
		// Only a head writes its packet here: the body follows the head's
		// links, and it may sit in another span this cycle.
		if f.Kind.IsHead() && op.slots < f.Pkt.MinSlots {
			f.Pkt.MinSlots = op.slots
		}
		if op.isTerm {
			n.sink(f, fx)
			continue
		}
		dr := op.link.Router
		rt := &n.routers[dr]
		ip := &rt.in[op.link.Port]
		f.arrive = cyc
		vc := &ip.vcs[we.outVC]
		if vc.buf.count == 0 {
			vc.headArrive = f.arrive
		}
		vc.buf.push(f)
		if vc.state == vcActive {
			ip.saMask |= 1 << we.outVC
		} else {
			ip.raMask |= 1 << we.outVC
		}
		ip.flits++
		if fx.owns(dr) {
			n.inFlits[dr]++
			n.portMask[dr] |= 1 << op.link.Port
			rt.bufWrites++
		} else {
			fx.arrivals = append(fx.arrivals, uint32(dr)<<5|uint32(op.link.Port))
		}
		if f.Kind.IsHead() && op.router >= 0 {
			f.Pkt.Hops++
			n.trace(EvHop, f.Pkt.ID, op.link.Router)
		}
	}
}

// sink consumes a flit at its destination terminal and queues the packet
// for eject once its tail arrives.
func (n *Network) sink(f Flit, fx *tickFx) {
	fx.sunk++
	p := f.Pkt
	p.received++
	if n.atrOn && f.Kind.IsHead() {
		p.headRecv = n.cycle
	}
	if f.Kind.IsTail() {
		if p.received != p.NumFlits {
			panic(fmt.Sprintf("noc: packet %d tail with %d/%d flits received", p.ID, p.received, p.NumFlits))
		}
		p.RecvCycle = n.cycle
		n.trace(EvEject, p.ID, -1)
		fx.ejected = append(fx.ejected, p)
	}
}

// eject finishes a delivered packet after the deliver phase: the endpoint
// attribution rollups, the statistics and the delivery callback.
func (n *Network) eject(p *Packet) {
	if n.atrOn && p.headRecv > 0 {
		// Endpoint rollups: NI queue wait plus the NI wire cycle charge to
		// the source router, body-drain serialization to the destination
		// router.
		src := &n.routers[n.termRouter[p.Src]]
		src.atr[AttrQueue] += p.InjectCycle - p.CreateCycle
		src.atr[AttrLink]++
		dst := &n.routers[n.termRouter[p.Dst]]
		dst.atr[AttrSerialization] += n.cycle - p.headRecv
	}
	n.stats.recordPacket(p)
	if n.onPacket != nil {
		n.onPacket(p)
	}
}

// allocate is the second phase of a cycle for one span: injection from the
// span's NIs, then route/VC allocation, switch allocation and the
// occupancy count over its routers. No stage reads another router's state,
// so each span runs them back to back.
func (n *Network) allocate(fx *tickFx) {
	n.inject(fx)
	n.routeAndAllocate(fx)
	n.switchAllocate(fx)
	n.accumulate(fx)
}

// inject pushes flits from the span's NI source queues into router local
// input ports, using the same VC-allocation and credit machinery as a link.
func (n *Network) inject(fx *tickFx) {
	for t, hi := fx.niLo, fx.niHi; t < hi; t++ {
		q := &n.nis[t]
		if len(q.streams) == 0 && q.queued() == 0 {
			continue // nothing queued, nothing mid-injection
		}
		budget := q.up.slots
		// Advance the active streams, one flit each.
		live := q.streams[:0]
		for i := range q.streams {
			st := q.streams[i]
			if budget > 0 && q.up.creditOK(st.vc) {
				budget--
				n.emitFlit(q, &st, fx)
			}
			if st.pkt != nil {
				live = append(live, st)
			}
		}
		q.streams = live
		// Open new streams for queued packets while slots and VCs allow.
		for budget > 0 && q.queued() > 0 {
			p := q.queue[q.qHead] // peek: pop only once the head flit wins a VC
			class := n.alg.InitialClass(p.Src, p.Dst)
			lo, hi := n.alg.ClassVCs(class, q.up.downVCs)
			vc, ok := q.up.allocVC(p, lo, hi)
			if !ok || !q.up.creditOK(vc) {
				if ok {
					// VC granted but no credit; release instantly (no flit
					// was sent on it yet).
					q.up.owner[vc] = nil
				}
				break
			}
			p.vcClass = class
			p.InjectCycle = n.cycle
			n.trace(EvInject, p.ID, q.up.link.Router)
			q.pop()
			fx.popped++
			st := niStream{pkt: p, vc: vc}
			budget--
			n.emitFlit(q, &st, fx)
			if st.pkt != nil {
				q.streams = append(q.streams, st)
			}
		}
		// Spend leftover wide-link slots on second flits of active streams
		// (a same-VC combined pair).
		for i := range q.streams {
			if budget == 0 {
				break
			}
			st := &q.streams[i]
			if st.pkt != nil && q.up.creditOK(st.vc) {
				budget--
				n.emitFlit(q, st, fx)
			}
		}
		k := 0
		for _, st := range q.streams {
			if st.pkt != nil {
				q.streams[k] = st
				k++
			}
		}
		q.streams = q.streams[:k]
	}
}

// emitFlit sends the next flit of a stream and closes the stream on tail.
func (n *Network) emitFlit(q *ni, st *niStream, fx *tickFx) {
	p := st.pkt
	kind := flitKind(p.NumFlits, st.nextSeq)
	f := Flit{Pkt: p, Seq: int32(st.nextSeq), Kind: kind}
	f.Csum = n.flitCsum(&f)
	q.up.consumeCredit(st.vc)
	q.up.wire.push(wireEvt{flit: f, outVC: st.vc, at: n.cycle + 1})
	fx.injected++
	fx.moved = true
	st.nextSeq++
	if kind.IsTail() {
		q.up.releaseOnTail(st.vc)
		st.pkt = nil
	}
}

// routeAndAllocate is pipeline stage 1a: route computation for fresh heads
// and downstream VC allocation for waiting heads, over the span's routers.
// All writes stay inside the visited router (and the packet whose head it
// holds) except the effects routed through fx, so disjoint spans may run
// concurrently (see shard.go).
func (n *Network) routeAndAllocate(fx *tickFx) {
	// The port-fairness rotation offset is cycle%radix; routers share a
	// handful of radix values, so memoize the division across the scan.
	lastRadix, cycOff := 0, 0
	for r, hi := fx.lo, fx.hi; r < hi; r++ {
		if n.inFlits[r] == 0 {
			continue // no buffered flit anywhere: no VC has work
		}
		rt := &n.routers[r]
		radix := len(rt.in)
		if radix != lastRadix {
			lastRadix = radix
			cycOff = int(n.cycle % int64(radix))
		}
		// Visit occupied ports in rotated order (cycOff first, wrapping),
		// then only the VCs with stage-1 work, in ascending VC order —
		// exactly the order of a full scan with the no-op visits removed.
		for m := rotMask(n.portMask[r], cycOff, radix); m != 0; m &= m - 1 {
			pi := bits.TrailingZeros32(m) + cycOff
			if pi >= radix {
				pi -= radix
			}
			ip := &rt.in[pi]
			for vm := ip.raMask; vm != 0; vm &= vm - 1 {
				vi := bits.TrailingZeros32(vm)
				vc := &ip.vcs[vi]
				if vc.state == vcIdle {
					if vc.headArrive >= n.cycle {
						continue // buffered this cycle; eligible next
					}
					head := vc.buf.peek()
					if !head.Kind.IsHead() {
						continue
					}
					p := head.Pkt
					d := n.route(r, p)
					if d.OutPort < 0 || rt.out[d.OutPort].dead {
						// No live route (severed destination, or a
						// non-fault-aware algorithm pointing at a dead
						// link): drop the packet rather than wedge.
						markBroken(&fx.broken, p, DropUnroutable)
						continue
					}
					vc.outPort, vc.class = int16(d.OutPort), int16(d.VCClass)
					vc.cur = p
					p.vcClass = d.VCClass
					vc.waitCycles = 0
					vc.state = vcWaitVC
				}
				{
					head := vc.buf.peek()
					p := head.Pkt
					out := rt.out[vc.outPort]
					lo, hi := n.alg.ClassVCs(int(vc.class), out.downVCs)
					if ovc, ok := out.allocVC(p, lo, hi); ok {
						vc.outVC = int16(ovc)
						vc.state = vcActive
						vc.waitCycles = 0
						ip.raMask &^= 1 << vi
						ip.saMask |= 1 << vi
						if n.tracer != nil {
							n.tracer.record(n.cycle, EvVCAlloc, p.ID, r, vc.outPort, int16(ovc), p.hopVC)
						}
						continue
					}
					vc.waitCycles++
					rt.arbOps++
					if n.atrOn {
						p.hopVC++ // one lost VC-allocation cycle at this hop
					}
					if n.escaper != nil && !p.escaped && int(vc.waitCycles) > n.escaper.EscapeThreshold() {
						p.escaped = true
						n.trace(EvEscape, p.ID, r)
						d := n.escaper.EscapeHop(r, p.Src, p.Dst)
						if d.OutPort < 0 || rt.out[d.OutPort].dead {
							markBroken(&fx.broken, p, DropUnroutable)
							continue
						}
						vc.outPort, vc.class = int16(d.OutPort), int16(d.VCClass)
						p.vcClass = d.VCClass
						vc.waitCycles = 0
						n.stats.Escapes++
					}
				}
			}
			if n.escaper == nil {
				continue
			}
			// Deadlock rescue for allocated-but-unstarted worms: a head that
			// won a downstream VC but has been credit-starved ever since can
			// still be diverted — no flit has left, so the downstream VC is
			// handed back and the packet re-routed onto the escape network.
			// Every blocked dependency cycle contains at least one such head
			// (or one still in vcWaitVC, rescued above), so rescuing heads
			// before their first flit moves keeps table routing deadlock
			// free.
			for vm := ip.saMask; vm != 0; vm &= vm - 1 {
				vi := bits.TrailingZeros32(vm)
				vc := &ip.vcs[vi]
				head := vc.buf.peek()
				if !head.Kind.IsHead() || head.Pkt != vc.cur {
					continue // worm is streaming; it drains with its head
				}
				out := rt.out[vc.outPort]
				if out.creditOK(int(vc.outVC)) {
					vc.waitCycles = 0
					continue // movable: any stall is just switch contention
				}
				vc.waitCycles++
				p := head.Pkt
				if p.escaped || int(vc.waitCycles) <= n.escaper.EscapeThreshold() {
					continue
				}
				out.releaseOnTail(int(vc.outVC))
				d := n.escaper.EscapeHop(r, p.Src, p.Dst)
				if d.OutPort < 0 || rt.out[d.OutPort].dead {
					markBroken(&fx.broken, p, DropUnroutable)
					continue
				}
				p.escaped = true
				n.trace(EvEscape, p.ID, r)
				n.stats.Escapes++
				vc.outPort, vc.class = int16(d.OutPort), int16(d.VCClass)
				p.vcClass = d.VCClass
				vc.waitCycles = 0
				vc.state = vcWaitVC
				ip.saMask &^= 1 << vi
				ip.raMask |= 1 << vi
			}
		}
	}
}

// rotMask rotates an n-bit mask right by s: bit s of m becomes bit 0 of the
// result. Used to start mask iteration at a round-robin offset while
// preserving the wrap-around visit order of a scalar scan.
func rotMask(m uint32, s, n int) uint32 {
	return (m>>s | m<<(n-s)) & (uint32(1)<<n - 1)
}

// route computes the next-hop decision for packet p at router r.
func (n *Network) route(r int, p *Packet) routing.Decision {
	if p.escaped && n.escaper != nil {
		return n.escaper.EscapeHop(r, p.Src, p.Dst)
	}
	return n.alg.NextHop(r, p.Src, p.Dst, p.vcClass)
}

// saIterations is the number of request/grant rounds of the separable
// switch allocator per cycle. Multiple rounds model the paper's dual
// parallel p:1 output arbiters (Figure 6(b)): they let a wide output
// collect a second flit — from a second VC of the same input port, from a
// different input port, or the next flit of the same VC — which is what
// sustains the 40%/80% low/high-load combining rates of Section 3.3.
const saIterations = 3

// switchAllocate is pipeline stage 1b plus stage 2: the separable switch
// allocator matches input VCs to output slots iteratively, then winning
// flits traverse crossbar and link. Constraints honored per cycle:
//
//   - an input port sends at most two flits, and only toward a single
//     output port (the split-datapath crossbar of Figure 4),
//   - an output port accepts at most `slots` flits (2 on wide links),
//   - every flit needs a credit on its downstream VC.
func (n *Network) switchAllocate(fx *tickFx) {
	lastRadix, cycOff := 0, 0 // cycle%radix memo, as in routeAndAllocate
	for r, hi := fx.lo, fx.hi; r < hi; r++ {
		if n.inFlits[r] == 0 {
			continue // nothing buffered: no VC can bid, no output can send
		}
		rt := &n.routers[r]
		radix := len(rt.in)
		if radix != lastRadix {
			lastRadix = radix
			cycOff = int(n.cycle % int64(radix))
		}
		// portSent/outSent/outLeft are maintained lazily: they hold their
		// rest values (zero / zero / outSlots) on entry, and the grant masks
		// accumulated below restore exactly the entries a grant disturbed.
		var inSent, outSent uint32
		// Allocation fidelity differs by router class. The homogeneous
		// baseline router is the classic single-iteration separable
		// allocator: each input port's v:1 arbiter nominates its first
		// requesting VC, and the nomination is simply lost when its output
		// has already been granted. Split-datapath HeteroNoC routers
		// (Figures 4-6) run the dual parallel output arbiters over the two
		// DSET halves: up to two flits per input port, a blocked request
		// falls through to another VC, and extra rounds model the second
		// p:1 arbiter supplying a matching flit for combining.
		iters, maxPerPort, fallthru := 1, int8(1), false
		switch {
		case rt.cfg.SplitDatapath:
			iters, maxPerPort, fallthru = saIterations, 2, true
		case rt.cfg.ImprovedSA:
			iters, fallthru = 2, true
		}
		for iter := 0; iter < iters; iter++ {
			moved := false
			// Occupied ports in rotated order; within a port, switch
			// candidates (saMask) starting at the v:1 round-robin pointer.
			// Skipped ports and VCs are exactly the visits a full scan
			// rejects without side effects, so grant order is unchanged.
			for m := rotMask(n.portMask[r], cycOff, radix); m != 0; m &= m - 1 {
				pi := bits.TrailingZeros32(m) + cycOff
				if pi >= radix {
					pi -= radix
				}
				if rt.portSent[pi] >= maxPerPort {
					continue
				}
				ip := &rt.in[pi]
				nvc := len(ip.vcs)
				rr := ip.rr
				for vm := rotMask(ip.saMask, rr, nvc); vm != 0; vm &= vm - 1 {
					vi := bits.TrailingZeros32(vm) + rr
					if vi >= nvc {
						vi -= nvc
					}
					vc := &ip.vcs[vi]
					// saMask guarantees an active VC with a buffered flit;
					// only maturity and credit remain to check.
					if vc.headArrive >= n.cycle {
						continue
					}
					if !rt.out[vc.outPort].creditOK(int(vc.outVC)) {
						if iter == 0 {
							// Credits only decrease within switchAllocate, so
							// an iteration-0 failure means no iteration can
							// send this VC this cycle: count the backpressure
							// cycle exactly once, and only against a head at
							// the buffer front (body flits stall with their
							// head's hop accounting).
							var arg int32
							if n.atrOn {
								if hf := vc.buf.peek(); hf.Kind.IsHead() {
									hf.Pkt.hopCredit++
									arg = 1
								}
							}
							if n.tracer != nil {
								n.tracer.record(n.cycle, EvCreditStall, vc.cur.ID, r, vc.outPort, vc.outVC, arg)
							}
						}
						continue
					}
					rt.arbOps++
					if rt.outLeft[vc.outPort] == 0 {
						if fallthru {
							continue // DSET halves let another VC bid
						}
						break // baseline: the nomination is lost this cycle
					}
					out := rt.out[vc.outPort]
					n.sendFlit(rt, pi, vc, out, fx)
					rt.portSent[pi]++
					rt.outLeft[vc.outPort]--
					rt.outSent[vc.outPort]++
					inSent |= 1 << pi
					outSent |= 1 << vc.outPort
					next := vi + 1
					if next == nvc {
						next = 0
					}
					ip.rr = next
					moved = true
					break
				}
			}
			if !moved {
				break
			}
		}
		for m := outSent; m != 0; m &= m - 1 {
			po := bits.TrailingZeros32(m)
			out := rt.out[po]
			out.busyCycles++
			if rt.outSent[po] == 2 {
				out.combineCycles++
			}
			rt.outSent[po] = 0
			rt.outLeft[po] = rt.outSlots[po]
		}
		for m := inSent; m != 0; m &= m - 1 {
			rt.portSent[bits.TrailingZeros32(m)] = 0
		}
	}
}

// sendFlit pops a winning flit from its input VC, returns a credit
// upstream, and launches the flit onto the output link. out must belong to
// rt (its queued wire event counts against rt's pending events). The
// upstream credit push is safe in a parallel pass — this router is the
// credit queue's only writer — but the upstream event-mask bit and the
// progress flag go through fx.
func (n *Network) sendFlit(rt *router, inPort int, vc *inVC, out *outputPort, fx *tickFx) {
	f := vc.buf.pop()
	if vc.buf.count > 0 {
		vc.headArrive = vc.buf.buf[vc.buf.head].arrive
	}
	var sa int32
	if n.atrOn && f.Kind.IsHead() {
		sa = n.settleAttrHop(rt, &f)
	}
	ip := &rt.in[inPort]
	ip.flits--
	n.inFlits[rt.id]--
	rt.bufReads++
	rt.xbarFlits++
	out.flitsSent++
	fx.moved = true
	if n.tracer != nil {
		n.tracer.record(n.cycle, EvSwitchAlloc, f.Pkt.ID, rt.id, int16(out.port), vc.outVC, sa)
	}
	if up := ip.upstream; up != nil {
		up.creditQ.push(creditEvt{vc: int(vc.idx), at: n.cycle + 1})
		if up.router >= 0 {
			fx.creditNotify(up.router, up.port)
		}
	}
	out.consumeCredit(int(vc.outVC))
	out.wire.push(wireEvt{flit: f, outVC: int(vc.outVC), at: n.cycle + 2})
	n.evMask[rt.id] |= 1 << out.port
	bit := uint32(1) << vc.idx
	if f.Kind.IsTail() {
		out.releaseOnTail(int(vc.outVC))
		vc.state = vcIdle
		vc.cur = nil
		ip.saMask &^= bit
		if vc.buf.count > 0 {
			ip.raMask |= bit // next packet's head is already buffered
		}
	} else if vc.buf.count == 0 {
		ip.saMask &^= bit // drained mid-packet; rearm on the next arrival
	}
	if ip.flits == 0 {
		n.portMask[rt.id] &^= 1 << inPort
	}
}

// accumulate gathers the span's per-cycle occupancy statistics from the
// maintained flit counters (CheckInvariants audits them against a rescan).
func (n *Network) accumulate(fx *tickFx) {
	for i, f := range n.inFlits[fx.lo:fx.hi] {
		if f != 0 {
			n.routers[fx.lo+i].bufOccSum += int64(f)
		}
	}
}
