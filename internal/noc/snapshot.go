package noc

// Deterministic checkpointing (the NOCCKPT01 "noc-net" kind). Snapshot
// serializes the primary dynamic state of the network — packets, VC
// buffers and allocation state, credits, event queues, round-robin
// pointers, statistics and the fault overlay — so that restoring it into
// a fresh Network built from the same Config reproduces the fingerprint
// bit-for-bit and every later Step, at any ShardWorkers count.
//
// One two-way walk (walkBody) names every persisted field once: it writes
// the field to a ckpt.Writer, reads it from a ckpt.Reader, or, with
// neither, only collects the packets the fields reference. Packets are
// stored once in a table in walk order and referenced by index, so
// identity survives the round trip. Nothing the kernel derives is stored:
// syncDerived rebuilds it from the same rescan CheckInvariants audits,
// and a flit's kind and checksum follow from its packet and sequence
// number. Structure is rebuilt by New(cfg) and only checked against a
// signature, and omitted fields keep the target's construction values,
// so the target must be fresh. A restore is accepted only if the rebuilt
// state passes CheckInvariants, packet graph included, and reproduces the
// recorded fingerprint.

import (
	"fmt"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/fault"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

const (
	// KindNetwork labels a Network checkpoint.
	KindNetwork = "noc-net"

	// Format v4 stores primary state only. As since v2, an idle input VC
	// costs one flag byte and a quiet output port one flag varint.
	netSnapshotVersion = 4
)

// outputPort flag bits. Each bit gates a group of fields that is omitted
// entirely while the group holds its construction values; a quiet port
// costs a single zero varint.
const (
	opHasFault   = 1 << iota // killed, or a transient-fault window
	opHasCredits             // consumed credits or held VCs
	opHasArb                 // advanced VC-allocation pointer
	opHasEvents              // queued wire or credit events
	opHasStats               // nonzero traffic counters
	opFlagsAll   = opHasFault | opHasCredits | opHasArb | opHasEvents | opHasStats
)

// bornDead reports a port New left unwired: no downstream router and no
// terminal. Such a port is dead from construction.
func (o *outputPort) bornDead() bool { return o.credits == nil && !o.isTerm }

// Snapshot serializes the dynamic state of the network. Packets carrying
// a Payload cannot be checkpointed.
func (n *Network) Snapshot() ([]byte, error) {
	k := &walker{index: map[*Packet]int{}}
	n.walkBody(k)
	for _, p := range k.table {
		if p.Payload != nil {
			return nil, fmt.Errorf("noc: packet %d carries a payload, which checkpoints cannot hold", p.ID)
		}
	}
	k.w = ckpt.NewWriter(ckpt.Header{
		Kind:        KindNetwork,
		Version:     netSnapshotVersion,
		Cycle:       n.cycle,
		Flits:       int64(n.flitsInNetwork),
		Queued:      int64(n.queuedPackets),
		NextPktID:   n.nextPktID,
		Fingerprint: n.Fingerprint(),
	})
	n.walkSignature(k)
	k.count(len(k.table))
	for _, p := range k.table {
		walkPacket(k, p)
	}
	n.walkBody(k)
	return k.w.Finish(), nil
}

// RestoreSnapshot loads a Snapshot into n, which must be freshly
// constructed from the same Config: never stepped, never injected into
// and never the target of an earlier RestoreSnapshot. The rebuilt state
// must pass CheckInvariants and reproduce the fingerprint recorded at
// snapshot time; a mismatch means the checkpoint and the target config
// disagree. On error n must be discarded.
func (n *Network) RestoreSnapshot(data []byte) error {
	if n.restored || n.cycle != 0 || n.stats.PacketsInjected != 0 || n.flitsInNetwork != 0 || n.queuedPackets != 0 {
		return fmt.Errorf("noc: RestoreSnapshot target must be freshly constructed")
	}
	n.restored = true
	r, err := ckpt.NewReader(data)
	if err != nil {
		return err
	}
	h := r.Header()
	if h.Kind != KindNetwork {
		return fmt.Errorf("noc: checkpoint kind %q, want %q", h.Kind, KindNetwork)
	}
	if h.Version != netSnapshotVersion {
		return fmt.Errorf("noc: checkpoint version %d, want %d", h.Version, netSnapshotVersion)
	}
	n.cycle, n.nextPktID = h.Cycle, h.NextPktID
	k := &walker{r: r}
	n.walkSignature(k)
	k.table = make([]*Packet, k.count(0))
	for i := range k.table {
		if !k.ok() {
			break
		}
		k.table[i] = &Packet{}
		walkPacket(k, k.table[i])
	}
	n.walkBody(k)
	if k.err != nil {
		return k.err
	}
	if err := r.Done(); err != nil {
		return err
	}
	n.replayFaults()
	n.syncDerived(true)
	if int64(n.flitsInNetwork) != h.Flits || int64(n.queuedPackets) != h.Queued {
		return fmt.Errorf("noc: checkpoint header counts %d flits and %d queued packets, its body %d and %d",
			h.Flits, h.Queued, n.flitsInNetwork, n.queuedPackets)
	}
	if err := n.CheckInvariants(); err != nil {
		return fmt.Errorf("noc: checkpoint state cannot run: %w", err)
	}
	if got := n.Fingerprint(); got != h.Fingerprint {
		return fmt.Errorf("noc: restored fingerprint %016x != checkpoint %016x (config mismatch?)", got, h.Fingerprint)
	}
	return nil
}

// walker is the two-way checkpoint walk: it writes each visited field to
// w, reads it from r, or, with neither set, only collects the referenced
// packets into table.
type walker struct {
	w     *ckpt.Writer
	r     *ckpt.Reader
	index map[*Packet]int // packet to table position, when not reading
	table []*Packet
	err   error // first semantic decode error; r.Err holds structural ones
}

func (k *walker) reading() bool { return k.r != nil }

func (k *walker) ok() bool { return k.err == nil && (k.r == nil || k.r.Err() == nil) }

func (k *walker) failf(format string, args ...any) {
	if k.err == nil {
		k.err = fmt.Errorf("noc: checkpoint "+format, args...)
	}
}

// walkInt walks a signed field as a varint; a read refuses a value the
// field cannot hold.
func walkInt[T ~int | ~int16 | ~int32 | ~int64](k *walker, v *T) {
	switch {
	case k.w != nil:
		k.w.I64(int64(*v))
	case k.r != nil:
		x := k.r.I64()
		if int64(T(x)) != x {
			k.failf("value %d out of range", x)
		}
		*v = T(x)
	}
}

// walkUint walks an unsigned field as a uvarint; a read refuses a value
// the field cannot hold.
func walkUint[T ~uint8 | ~uint16 | ~uint64](k *walker, v *T) {
	switch {
	case k.w != nil:
		k.w.U64(uint64(*v))
	case k.r != nil:
		x := k.r.U64()
		if uint64(T(x)) != x {
			k.failf("value %d out of range", x)
		}
		*v = T(x)
	}
}

func (k *walker) bool(v *bool) {
	switch {
	case k.w != nil:
		k.w.Bool(*v)
	case k.r != nil:
		*v = k.r.Bool()
	}
}

// count walks the length of a variable-length sequence: it writes n,
// reads a count no larger than the bytes that remain (every element takes
// at least one), or returns n when collecting.
func (k *walker) count(n int) int {
	switch {
	case k.w != nil:
		k.w.U64(uint64(n))
	case k.r != nil:
		return k.r.Count()
	}
	return n
}

// pkt walks a packet reference as its table index. A nullable reference
// stores nil as 0 and index i as i+1; any other reference must be set.
func (k *walker) pkt(p **Packet, nullable bool) {
	if k.r != nil {
		i := k.r.U64()
		if nullable {
			if i == 0 {
				*p = nil
				return
			}
			i--
		}
		if i >= uint64(len(k.table)) {
			k.failf("packet reference %d outside table of %d", i, len(k.table))
			return
		}
		*p = k.table[i]
		return
	}
	var i int
	if *p != nil {
		var seen bool
		if i, seen = k.index[*p]; !seen {
			i = len(k.table)
			k.index[*p] = i
			k.table = append(k.table, *p)
		}
		if nullable {
			i++
		}
	}
	if k.w != nil {
		k.w.U64(uint64(i))
	}
}

// shape walks a structural value and reports a read that differs from
// the target's.
func (k *walker) shape(want int) (got int, differs bool) {
	got = want
	walkInt(k, &got)
	return got, got != want && k.ok()
}

// walkSignature walks the structural identity of the network, so a
// restore into a differently shaped target fails loudly instead of
// corrupting state. The topology name pins the exact shape: a 4x16 mesh
// has the router and terminal counts of an 8x8 one.
func (n *Network) walkSignature(k *walker) {
	name := n.cfg.Topo.Name()
	switch {
	case k.w != nil:
		k.w.Str(name)
	case k.r != nil:
		if got := k.r.Str(); k.r.Err() == nil && got != name {
			k.failf("topology %q, target network is %q", got, name)
		}
	}
	for _, c := range [...]struct {
		what string
		n    int
	}{{"router count", len(n.routers)}, {"terminal count", len(n.nis)}} {
		if got, differs := k.shape(c.n); differs {
			k.failf("%s %d, target network has %d", c.what, got, c.n)
		}
	}
	for ri := range n.routers {
		rt := &n.routers[ri]
		for j, want := range [...]int{len(rt.in), rt.cfg.VCs, rt.cfg.BufDepth} {
			if got, differs := k.shape(want); differs {
				k.failf("router %d %s %d, target network has %d", ri, [...]string{"radix", "VCs", "buffer depth"}[j], got, want)
			}
		}
		for p, op := range rt.out {
			if got, differs := k.shape(op.slots); differs {
				k.failf("router %d port %d link slots %d, target network has %d", ri, p, got, op.slots)
			}
		}
	}
}

// walkPacket walks one packet-table entry. RecvCycle is not stored: the
// tail's sink sets it, after which nothing in the network references the
// packet.
func walkPacket(k *walker, p *Packet) {
	walkUint(k, &p.ID)
	for _, v := range [...]*int{&p.Src, &p.Dst, &p.NumFlits, &p.Class, &p.Hops, &p.MinSlots, &p.vcClass, &p.received} {
		walkInt(k, v)
	}
	for _, v := range [...]*int64{&p.CreateCycle, &p.InjectCycle, &p.headRecv, &p.atrVC, &p.atrSA, &p.atrCredit} {
		walkInt(k, v)
	}
	walkInt(k, &p.hopVC)
	walkInt(k, &p.hopCredit)
	k.bool(&p.escaped)
	k.bool(&p.broken)
	walkUint(k, &p.dropWhy)
}

// walkFlit walks a flit's packet and sequence number. Its kind and
// checksum follow from them, as emitFlit sets them; walkBody walks the
// fault overlay first, so a read knows whether checksums are on.
func (n *Network) walkFlit(k *walker, f *Flit) {
	k.pkt(&f.Pkt, false)
	walkInt(k, &f.Seq)
	if k.reading() && f.Pkt != nil {
		f.Kind = flitKind(f.Pkt.NumFlits, int(f.Seq))
		f.Csum = n.flitCsum(f)
	}
}

// walkBody walks everything after the packet table.
func (n *Network) walkBody(k *walker) {
	walkInt(k, &n.lastMove)
	n.walkFaults(k)
	for t := range n.nis {
		q := &n.nis[t]
		nq := k.count(q.queued())
		if k.reading() {
			q.queue = make([]*Packet, nq)
		}
		for i := q.qHead; i < len(q.queue); i++ {
			k.pkt(&q.queue[i], false)
		}
		ns := k.count(len(q.streams))
		if k.reading() {
			q.streams = make([]niStream, ns)
		}
		for i := range q.streams {
			st := &q.streams[i]
			k.pkt(&st.pkt, false)
			walkInt(k, &st.nextSeq)
			walkInt(k, &st.vc)
		}
		n.walkPort(k, &q.up)
	}
	for ri := range n.routers {
		rt := &n.routers[ri]
		for _, v := range [...]*int64{&rt.bufOccSum, &rt.bufReads, &rt.bufWrites, &rt.xbarFlits, &rt.arbOps} {
			walkInt(k, v)
		}
		for b := range rt.atr {
			walkInt(k, &rt.atr[b])
		}
		for pi := range rt.in {
			ip := &rt.in[pi]
			walkInt(k, &ip.rr)
			for vi := range ip.vcs {
				n.walkVC(k, &ip.vcs[vi])
			}
		}
		for _, op := range rt.out {
			n.walkPort(k, op)
		}
		if !k.ok() {
			return
		}
	}
	n.walkStats(k)
	nb := k.count(len(n.brokenQ))
	if k.reading() {
		n.brokenQ = make([]*Packet, nb)
	}
	for i := range n.brokenQ {
		k.pkt(&n.brokenQ[i], false)
	}
}

// walkVC walks one input VC. A VC with no buffered flit and no allocation
// costs one flag byte; the fields a state leaves unread (everything when
// idle, the downstream VC while waiting for one) are not stored, and the
// kernel rewrites them before reading them again.
func (n *Network) walkVC(k *walker, vc *inVC) {
	idle := vc.state == vcIdle && vc.buf.count == 0
	k.bool(&idle)
	if idle {
		return
	}
	walkUint(k, &vc.state)
	if vc.state != vcIdle {
		walkInt(k, &vc.outPort)
		walkInt(k, &vc.class)
		walkInt(k, &vc.waitCycles)
		k.pkt(&vc.cur, true)
		if vc.state == vcActive {
			walkInt(k, &vc.outVC)
		}
	}
	nf := k.count(vc.buf.len())
	if k.reading() {
		if nf > vc.buf.cap() {
			k.failf("%d buffered flits exceed VC depth %d", nf, vc.buf.cap())
			return
		}
		vc.buf.count = int32(nf)
	}
	for i := int32(0); i < vc.buf.count; i++ {
		f := vc.buf.at(i)
		n.walkFlit(k, f)
		walkInt(k, &f.arrive)
	}
}

// walkPort walks one output port: a flag varint naming the field groups
// that differ from their construction values, then those groups. Credits
// and owners are sized by the target's structure.
func (n *Network) walkPort(k *walker, op *outputPort) {
	var flags uint64
	set := func(bit uint64, differs bool) {
		if differs {
			flags |= bit
		}
	}
	set(opHasFault, op.dead != op.bornDead() || op.faultUntil != 0 || op.faultCorrupt)
	for v := range op.credits {
		set(opHasCredits, op.credits[v] != op.downDepth || op.owner[v] != nil)
	}
	set(opHasArb, op.rrVC != 0)
	set(opHasEvents, op.wire.n > 0 || op.creditQ.n > 0)
	set(opHasStats, op.flitsSent != 0 || op.busyCycles != 0 || op.combineCycles != 0)
	walkUint(k, &flags)
	if flags&^uint64(opFlagsAll) != 0 {
		k.failf("unknown output-port flags %#x", flags)
		return
	}
	if flags&opHasFault != 0 {
		k.bool(&op.dead)
		walkInt(k, &op.faultUntil)
		k.bool(&op.faultCorrupt)
	}
	if flags&opHasCredits != 0 {
		for v := range op.credits {
			walkInt(k, &op.credits[v])
		}
		for v := range op.owner {
			k.pkt(&op.owner[v], true)
		}
	}
	if flags&opHasArb != 0 {
		walkInt(k, &op.rrVC)
	}
	if flags&opHasEvents != 0 {
		// A wire flit's arrive cycle is rewritten on delivery, so only the
		// buffered copies store it.
		walkEvq(k, &op.wire, func(e *wireEvt) {
			n.walkFlit(k, &e.flit)
			walkInt(k, &e.outVC)
			walkInt(k, &e.at)
		})
		walkEvq(k, &op.creditQ, func(e *creditEvt) {
			walkInt(k, &e.vc)
			walkInt(k, &e.at)
		})
	}
	if flags&opHasStats != 0 {
		for _, v := range [...]*int64{&op.flitsSent, &op.busyCycles, &op.combineCycles} {
			walkInt(k, v)
		}
	}
}

// walkEvq walks an event queue oldest first; a read pushes the decoded
// events onto the target's empty queue.
func walkEvq[T any](k *walker, q *evq[T], elem func(*T)) {
	n := k.count(q.n)
	if !k.reading() {
		for i := 0; i < n; i++ {
			e := q.at(i)
			elem(&e)
		}
		return
	}
	for i := 0; i < n && k.ok(); i++ {
		var e T
		elem(&e)
		q.push(e)
	}
}

func (n *Network) walkStats(k *walker) {
	s := &n.stats
	for _, v := range []*int64{
		&s.Cycles, &s.PacketsInjected, &s.FlitsInjected, &s.FlitsReceived,
		&s.PacketsReceived, &s.Escapes, &s.FlitsLost, &s.FlitsDroppedFault,
		&s.FlitsCorrupted, &s.PacketsLost, &s.PacketsUnroutable,
		&s.TotalLatency, &s.QueuingLatency, &s.TransferLatency,
		&s.BlockingLatency, &s.HopsSum, &s.measureStart,
	} {
		walkInt(k, v)
	}
	for b := range s.attr {
		walkInt(k, &s.attr[b])
	}
	classes := s.Classes()
	nc := k.count(len(classes))
	for i := 0; i < nc && k.ok(); i++ {
		var c int
		cs := &ClassStats{}
		if !k.reading() {
			c = classes[i]
			cs = s.classes[c]
		}
		walkInt(k, &c)
		walkInt(k, &cs.Packets)
		walkInt(k, &cs.TotalLatency)
		if k.reading() {
			if s.classes == nil {
				s.classes = make(map[int]*ClassStats)
			}
			s.classes[c] = cs
		}
	}
	// The latency histogram is sparse: its nonzero buckets as (index,
	// count) pairs. recordPacket allocates it with its first count, so it
	// exists exactly when a bucket is nonzero.
	nz := 0
	for _, v := range s.latHist {
		if v != 0 {
			nz++
		}
	}
	if nz = k.count(nz); nz > 0 && k.reading() {
		s.ensureHist()
	}
	for i, b := 0, 0; i < nz && k.ok(); i, b = i+1, b+1 {
		if !k.reading() {
			for s.latHist[b] == 0 {
				b++
			}
		}
		walkInt(k, &b)
		if b < 0 || b >= len(s.latHist) {
			k.failf("latency histogram bucket %d out of range", b)
			return
		}
		walkInt(k, &s.latHist[b])
	}
}

// walkFaults walks the fault overlay. The checkpoint defines it whole: a
// disarmed checkpoint disarms the target.
func (n *Network) walkFaults(k *walker) {
	k.bool(&n.faultsArmed)
	if !n.faultsArmed {
		if k.reading() {
			n.faultEvents, n.faultNext, n.niDead = nil, 0, nil
			n.linkState, n.faultAware = nil, nil
		}
		return
	}
	ne := k.count(len(n.faultEvents))
	if k.reading() {
		n.faultEvents = make([]fault.Event, ne)
	}
	for i := range n.faultEvents {
		e := &n.faultEvents[i]
		walkInt(k, &e.Cycle)
		walkUint(k, &e.Kind)
		walkInt(k, &e.Router)
		walkInt(k, &e.Port)
		walkInt(k, &e.Duration)
		k.bool(&e.Corrupt)
		if !k.ok() {
			return
		}
		if k.reading() {
			if err := e.Validate(n.cfg.Topo); err != nil {
				k.failf("%v", err)
				return
			}
		}
	}
	walkInt(k, &n.faultNext)
	if n.faultNext < 0 || n.faultNext > len(n.faultEvents) {
		k.failf("faultNext %d outside %d events", n.faultNext, len(n.faultEvents))
		return
	}
	if k.reading() {
		n.niDead = make([]bool, len(n.nis)) // filled by syncDerived
	}
}

// replayFaults rebuilds the liveness overlay of an armed, restored
// network by replaying the permanent events that had already struck.
// This reconstructs exactly the LinkState the original built
// incrementally; the port-level kill effects (dead flags, drained queues,
// zeroed credits) were restored with the ports, so no kill* call — which
// would mutate statistics — runs here.
func (n *Network) replayFaults() {
	if !n.faultsArmed {
		return
	}
	n.linkState = topology.NewLinkState(n.cfg.Topo)
	for _, e := range n.faultEvents[:n.faultNext] {
		switch e.Kind {
		case fault.LinkFail:
			n.linkState.FailLink(e.Router, e.Port)
		case fault.RouterFail:
			if !n.linkState.RouterFailed(e.Router) {
				n.linkState.FailRouter(e.Router)
			}
		}
	}
	n.faultAware, _ = n.alg.(routing.FaultAware)
	if n.faultAware != nil && n.linkState.NumDownLinks() > 0 {
		n.faultAware.Rebuild(n.linkState)
	}
}
