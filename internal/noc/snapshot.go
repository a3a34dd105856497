package noc

// Deterministic checkpointing (the NOCCKPT01 "noc-net" and "noc-rel"
// kinds). Snapshot serializes every piece of dynamic network state —
// queued and in-flight packets, VC buffers and allocation state, credits,
// wire and credit event queues, round-robin pointers, statistics, and the
// fault overlay — such that restoring into a freshly constructed Network
// with the same Config reproduces the golden fingerprint bit-for-bit and
// every subsequent Step behaves exactly as the original would have,
// including under ShardWorkers > 0 (sharding reads only committed state,
// which the snapshot captures in full).
//
// Identity-only state is deliberately not serialized: free lists and
// arena backing stores affect allocation reuse, never behavior, so a
// restored network simply starts with empty pools. Structure (topology,
// VC counts, buffer depths, link widths) is rebuilt by New(cfg) and only
// validated against a signature embedded in the checkpoint.
//
// Packets form a pointer graph (a packet is referenced from an NI queue,
// VC ownership tables, buffered flits and wire events at once). They are
// collected into a table in a deterministic walk order and all references
// are stored as table indices, so identity — which the purge and
// invariant machinery rely on — survives the round trip.

import (
	"fmt"
	"sort"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/fault"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

const (
	// KindNetwork labels a plain Network checkpoint.
	KindNetwork = "noc-net"
	// KindReliable labels a Reliable (network + retransmission state)
	// checkpoint.
	KindReliable = "noc-rel"

	// Format v2 compacts the steady state: an idle input VC costs one
	// flag byte and a quiet output port one flag varint, so a quiesced
	// 32x32 (1024-router) checkpoint stays small instead of spelling out
	// thousands of pristine credit arrays and empty event queues.
	netSnapshotVersion = 3
	relSnapshotVersion = 3
)

// outputPort snapshot flag bits (format v2). Each bit gates a group of
// fields that is omitted entirely when the group holds its
// construction-time defaults; a fully quiet port costs a single zero
// varint.
const (
	opHasFault   = 1 << iota // dead, or a transient-fault window
	opHasCredits             // consumed credits, owners or pending frees
	opHasArb                 // advanced round-robin pointers
	opHasEvents              // queued wire or credit events
	opHasStats               // nonzero traffic counters
	opFlagsAll   = opHasFault | opHasCredits | opHasArb | opHasEvents | opHasStats
)

// pristineCreditMask returns the creditMask an untouched port holds: all
// downstream VCs credited, or the all-ones sentinel of credit-less
// (terminal / dead-edge) ports.
func pristineCreditMask(op *outputPort) uint32 {
	if op.credits == nil {
		return ^uint32(0)
	}
	return uint32(1)<<op.downVCs - 1
}

// outputPortFlags computes which v2 field groups of a port differ from
// their construction-time defaults.
func outputPortFlags(op *outputPort) uint64 {
	var flags uint64
	if op.dead || op.faultUntil != 0 || op.faultCorrupt {
		flags |= opHasFault
	}
	dirty := op.creditMask != pristineCreditMask(op)
	for v := 0; !dirty && v < len(op.credits); v++ {
		dirty = op.credits[v] != op.downDepth || op.owner[v] != nil || op.pendingFree[v]
	}
	if dirty {
		flags |= opHasCredits
	}
	if op.rrVC != 0 || op.rrOut != 0 {
		flags |= opHasArb
	}
	if op.wire.len() > 0 || op.creditQ.len() > 0 {
		flags |= opHasEvents
	}
	if op.flitsSent != 0 || op.busyCycles != 0 || op.combineCycles != 0 {
		flags |= opHasStats
	}
	return flags
}

// PayloadCodec serializes opaque Packet payloads. A nil codec is valid
// for payload-free traffic (synthetic patterns); Snapshot fails if it
// meets a non-nil payload without a codec.
type PayloadCodec interface {
	EncodePayload(w *ckpt.Writer, payload any) error
	DecodePayload(r *ckpt.Reader) (any, error)
}

// Snapshot serializes the complete dynamic state of the network.
func (n *Network) Snapshot(codec PayloadCodec) ([]byte, error) {
	w := ckpt.NewWriter(ckpt.Header{
		Kind:        KindNetwork,
		Version:     netSnapshotVersion,
		Cycle:       n.cycle,
		Flits:       int64(n.flitsInNetwork),
		Queued:      int64(n.queuedPackets),
		NextPktID:   n.nextPktID,
		Fingerprint: n.Fingerprint(),
	})
	if err := n.encode(w, codec); err != nil {
		return nil, err
	}
	return w.Finish(), nil
}

// RestoreSnapshot loads a Snapshot into n, which must be a freshly
// constructed (never stepped) Network built from the same Config. After
// the restore the network's fingerprint is verified against the one
// recorded at snapshot time; a mismatch means the checkpoint and the
// target config disagree and the restore is rejected.
func (n *Network) RestoreSnapshot(data []byte, codec PayloadCodec) error {
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
	if err := n.decode(r, codec, h); err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	if got := n.Fingerprint(); got != h.Fingerprint {
		return fmt.Errorf("noc: restored fingerprint %016x != checkpoint %016x (config mismatch?)", got, h.Fingerprint)
	}
	return nil
}

// encode writes everything after the container header.
func (n *Network) encode(w *ckpt.Writer, codec PayloadCodec) error {
	n.encodeSignature(w)
	w.I64(n.lastMove)

	table, index, err := n.collectPackets(w, codec)
	if err != nil {
		return err
	}
	_ = table

	// Network interfaces.
	for t := range n.nis {
		q := &n.nis[t]
		w.Int(q.queued())
		for i := q.qHead; i < len(q.queue); i++ {
			w.Int(index[q.queue[i]])
		}
		w.Int(len(q.streams))
		for i := range q.streams {
			st := &q.streams[i]
			w.Int(index[st.pkt])
			w.Int(st.nextSeq)
			w.Int(st.vc)
		}
		w.Int(q.waitVC)
		encodeOutputPort(w, &q.up, index)
	}

	// Routers.
	for ri := range n.routers {
		rt := &n.routers[ri]
		w.Int(int(n.inFlits[ri]))
		w.U64(uint64(n.portMask[ri]))
		w.U64(uint64(n.evMask[ri]))
		w.I64(rt.bufOccSum)
		w.I64(rt.bufReads)
		w.I64(rt.bufWrites)
		w.I64(rt.xbarFlits)
		w.I64(rt.arbOps)
		for _, v := range rt.atr {
			w.I64(v)
		}
		for pi := range rt.in {
			ip := &rt.in[pi]
			w.Int(ip.rr)
			w.Int(ip.flits)
			w.U64(uint64(ip.raMask))
			w.U64(uint64(ip.saMask))
			for vi := range ip.vcs {
				vc := &ip.vcs[vi]
				// Idle-VC flag byte (format v2): a VC with no buffered
				// flit and no allocation is fully described by one byte.
				// Its remaining fields are stale scratch the kernel never
				// reads in this state (outPort/class are rewritten when
				// the next head routes, headArrive when the next flit
				// lands), so restore canonicalizes them to zero.
				idle := vc.state == vcIdle && vc.buf.count == 0
				w.Bool(idle)
				if idle {
					continue
				}
				w.U64(uint64(vc.state))
				w.Int(int(vc.outPort))
				w.Int(int(vc.outVC))
				w.Int(int(vc.class))
				w.I64(int64(vc.waitCycles))
				w.Int(index[vc.cur])
				w.I64(vc.headArrive)
				w.Int(vc.buf.len())
				for i := int32(0); i < vc.buf.count; i++ {
					encodeFlit(w, *vc.buf.at(i), index)
				}
			}
		}
		for _, op := range rt.out {
			encodeOutputPort(w, op, index)
		}
	}

	n.encodeStats(w)
	n.encodeFaults(w, index)
	return nil
}

// encodeSignature writes the structural identity of the network so a
// restore into a differently shaped target fails loudly instead of
// corrupting state.
func (n *Network) encodeSignature(w *ckpt.Writer) {
	// The topology name (e.g. "mesh8x8") pins the exact shape: fixed-radix
	// topologies make same-count meshes (8x8 vs 4x16) indistinguishable by
	// the per-router counts alone.
	w.Str(n.cfg.Topo.Name())
	w.Int(len(n.routers))
	w.Int(len(n.nis))
	for ri := range n.routers {
		rt := &n.routers[ri]
		w.Int(len(rt.in))
		w.Int(rt.cfg.VCs)
		w.Int(rt.cfg.BufDepth)
		for _, op := range rt.out {
			w.Int(op.slots)
		}
	}
}

func (n *Network) checkSignature(r *ckpt.Reader) error {
	bad := func(what string, got, want int) error {
		return fmt.Errorf("noc: checkpoint %s %d, target network has %d", what, got, want)
	}
	if v := r.Str(); v != n.cfg.Topo.Name() {
		return fmt.Errorf("noc: checkpoint topology %q, target network is %q", v, n.cfg.Topo.Name())
	}
	if v := r.Int(); v != len(n.routers) {
		return bad("router count", v, len(n.routers))
	}
	if v := r.Int(); v != len(n.nis) {
		return bad("terminal count", v, len(n.nis))
	}
	for ri := range n.routers {
		rt := &n.routers[ri]
		if v := r.Int(); v != len(rt.in) {
			return bad(fmt.Sprintf("router %d radix", ri), v, len(rt.in))
		}
		if v := r.Int(); v != rt.cfg.VCs {
			return bad(fmt.Sprintf("router %d VCs", ri), v, rt.cfg.VCs)
		}
		if v := r.Int(); v != rt.cfg.BufDepth {
			return bad(fmt.Sprintf("router %d buffer depth", ri), v, rt.cfg.BufDepth)
		}
		for p, op := range rt.out {
			if v := r.Int(); v != op.slots {
				return bad(fmt.Sprintf("router %d port %d link slots", ri, p), v, op.slots)
			}
		}
	}
	return r.Err()
}

// collectPackets walks every packet reference in deterministic order,
// assigns table indices, and writes the packet table. index maps nil to
// -1 so reference sites can encode unconditionally.
func (n *Network) collectPackets(w *ckpt.Writer, codec PayloadCodec) ([]*Packet, map[*Packet]int, error) {
	var table []*Packet
	index := map[*Packet]int{nil: -1}
	add := func(p *Packet) {
		if p == nil {
			return
		}
		if _, ok := index[p]; !ok {
			index[p] = len(table)
			table = append(table, p)
		}
	}
	for t := range n.nis {
		q := &n.nis[t]
		for i := q.qHead; i < len(q.queue); i++ {
			add(q.queue[i])
		}
		for i := range q.streams {
			add(q.streams[i].pkt)
		}
		collectPortPackets(&q.up, add)
	}
	for ri := range n.routers {
		rt := &n.routers[ri]
		for pi := range rt.in {
			ip := &rt.in[pi]
			for vi := range ip.vcs {
				vc := &ip.vcs[vi]
				for i := int32(0); i < vc.buf.count; i++ {
					add(vc.buf.at(i).Pkt)
				}
				add(vc.cur)
			}
		}
		for _, op := range rt.out {
			collectPortPackets(op, add)
		}
	}
	for _, p := range n.brokenQ {
		add(p)
	}

	w.Int(len(table))
	for _, p := range table {
		w.U64(p.ID)
		w.Int(p.Src)
		w.Int(p.Dst)
		w.Int(p.NumFlits)
		w.Int(p.Class)
		w.I64(p.CreateCycle)
		w.I64(p.InjectCycle)
		w.I64(p.RecvCycle)
		w.Int(p.Hops)
		w.Int(p.MinSlots)
		w.Int(p.vcClass)
		w.Bool(p.escaped)
		w.Int(p.received)
		w.Bool(p.broken)
		w.U64(uint64(p.dropWhy))
		w.I64(p.headRecv)
		w.I64(p.atrVC)
		w.I64(p.atrSA)
		w.I64(p.atrCredit)
		w.Int(int(p.hopVC))
		w.Int(int(p.hopCredit))
		if p.Payload == nil {
			w.Bool(false)
			continue
		}
		if codec == nil {
			return nil, nil, fmt.Errorf("noc: packet %d carries a payload but no PayloadCodec was given", p.ID)
		}
		w.Bool(true)
		if err := codec.EncodePayload(w, p.Payload); err != nil {
			return nil, nil, fmt.Errorf("noc: encoding payload of packet %d: %w", p.ID, err)
		}
	}
	return table, index, nil
}

func collectPortPackets(op *outputPort, add func(*Packet)) {
	for i := 0; i < op.wire.len(); i++ {
		add(op.wire.at(i).flit.Pkt)
	}
	for _, p := range op.owner {
		add(p)
	}
}

func encodeFlit(w *ckpt.Writer, f Flit, index map[*Packet]int) {
	w.Int(index[f.Pkt])
	w.I64(f.arrive)
	w.I64(int64(f.Seq))
	w.U64(uint64(f.Kind))
	w.U64(uint64(f.Csum))
}

func decodeFlit(r *ckpt.Reader, table []*Packet) (Flit, error) {
	var f Flit
	var err error
	f.Pkt, err = pktAt(r, table)
	if err != nil {
		return f, err
	}
	f.arrive = r.I64()
	f.Seq = int32(r.I64())
	f.Kind = FlitKind(r.U64())
	f.Csum = uint16(r.U64())
	return f, nil
}

func pktAt(r *ckpt.Reader, table []*Packet) (*Packet, error) {
	i := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if i == -1 {
		return nil, nil
	}
	if i < 0 || i >= len(table) {
		return nil, fmt.Errorf("noc: packet index %d outside table of %d", i, len(table))
	}
	return table[i], nil
}

func encodeOutputPort(w *ckpt.Writer, op *outputPort, index map[*Packet]int) {
	flags := outputPortFlags(op)
	w.U64(flags)
	if flags&opHasFault != 0 {
		w.Bool(op.dead)
		w.I64(op.faultUntil)
		w.Bool(op.faultCorrupt)
	}
	if flags&opHasCredits != 0 {
		w.Bool(op.credits != nil)
		if op.credits != nil {
			w.Int(len(op.credits))
			for _, c := range op.credits {
				w.Int(c)
			}
		}
		w.U64(uint64(op.creditMask))
		w.Int(len(op.owner))
		for _, p := range op.owner {
			w.Int(index[p])
		}
		w.Int(len(op.pendingFree))
		for _, b := range op.pendingFree {
			w.Bool(b)
		}
	}
	if flags&opHasArb != 0 {
		w.Int(op.rrVC)
		w.Int(op.rrOut)
	}
	if flags&opHasEvents != 0 {
		w.Int(op.wire.len())
		for i := 0; i < op.wire.len(); i++ {
			we := op.wire.at(i)
			encodeFlit(w, we.flit, index)
			w.Int(we.outVC)
			w.I64(we.at)
		}
		w.Int(op.creditQ.len())
		for i := 0; i < op.creditQ.len(); i++ {
			ce := op.creditQ.at(i)
			w.Int(ce.vc)
			w.I64(ce.at)
		}
	}
	if flags&opHasStats != 0 {
		w.I64(op.flitsSent)
		w.I64(op.busyCycles)
		w.I64(op.combineCycles)
	}
}

func decodeOutputPort(r *ckpt.Reader, op *outputPort, table []*Packet) error {
	flags := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if flags&^uint64(opFlagsAll) != 0 {
		return fmt.Errorf("noc: unknown output-port flags %#x", flags)
	}
	if flags&opHasFault != 0 {
		op.dead = r.Bool()
		op.faultUntil = r.I64()
		op.faultCorrupt = r.Bool()
	} else {
		op.dead, op.faultUntil, op.faultCorrupt = false, 0, false
	}
	if flags&opHasCredits != 0 {
		if hasCredits := r.Bool(); hasCredits {
			cn := r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			if op.credits == nil || cn != len(op.credits) {
				return fmt.Errorf("noc: credit array length %d != target %d", cn, len(op.credits))
			}
			for v := range op.credits {
				op.credits[v] = r.Int()
			}
		} else if op.credits != nil {
			return fmt.Errorf("noc: checkpoint has no credits for a credited port")
		}
		op.creditMask = uint32(r.U64())
		on := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if on != len(op.owner) {
			return fmt.Errorf("noc: owner array length %d != target %d", on, len(op.owner))
		}
		for v := range op.owner {
			p, err := pktAt(r, table)
			if err != nil {
				return err
			}
			op.owner[v] = p
		}
		pn := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if pn != len(op.pendingFree) {
			return fmt.Errorf("noc: pendingFree length %d != target %d", pn, len(op.pendingFree))
		}
		for v := range op.pendingFree {
			op.pendingFree[v] = r.Bool()
		}
	} else {
		for v := range op.credits {
			op.credits[v] = op.downDepth
		}
		op.creditMask = pristineCreditMask(op)
		for v := range op.owner {
			op.owner[v] = nil
		}
		for v := range op.pendingFree {
			op.pendingFree[v] = false
		}
	}
	if flags&opHasArb != 0 {
		op.rrVC = r.Int()
		op.rrOut = r.Int()
	} else {
		op.rrVC, op.rrOut = 0, 0
	}
	resetEvq(&op.wire)
	resetEvq(&op.creditQ)
	if flags&opHasEvents != 0 {
		wn := r.IntCount()
		for i := 0; i < wn && r.Err() == nil; i++ {
			f, err := decodeFlit(r, table)
			if err != nil {
				return err
			}
			outVC := r.Int()
			at := r.I64()
			op.wire.push(wireEvt{flit: f, outVC: outVC, at: at})
		}
		cn := r.IntCount()
		for i := 0; i < cn && r.Err() == nil; i++ {
			vc := r.Int()
			at := r.I64()
			op.creditQ.push(creditEvt{vc: vc, at: at})
		}
	}
	if flags&opHasStats != 0 {
		op.flitsSent = r.I64()
		op.busyCycles = r.I64()
		op.combineCycles = r.I64()
	} else {
		op.flitsSent, op.busyCycles, op.combineCycles = 0, 0, 0
	}
	return r.Err()
}

// resetEvq empties an event queue in place, dropping any stale references
// held by a previously used target, and rewinds it to head 0 (head
// position is identity-only: only FIFO order is observable).
func resetEvq[T any](q *evq[T]) {
	var zero T
	for i := range q.buf {
		q.buf[i] = zero
	}
	q.head, q.n = 0, 0
}

func (n *Network) encodeStats(w *ckpt.Writer) {
	s := &n.stats
	for _, v := range []int64{
		s.Cycles, s.PacketsInjected, s.FlitsInjected, s.FlitsReceived,
		s.PacketsReceived, s.Escapes, s.FlitsLost, s.FlitsDroppedFault,
		s.FlitsCorrupted, s.PacketsLost, s.PacketsUnroutable,
		s.TotalLatency, s.QueuingLatency, s.TransferLatency,
		s.BlockingLatency, s.HopsSum, s.measureStart,
	} {
		w.I64(v)
	}
	for _, v := range s.attr {
		w.I64(v)
	}
	classes := s.Classes()
	w.Int(len(classes))
	for _, c := range classes {
		cs := s.classes[c]
		w.Int(c)
		w.I64(cs.Packets)
		w.I64(cs.TotalLatency)
	}
	w.Bool(s.latHist != nil)
	if s.latHist != nil {
		var nz int
		for _, v := range s.latHist {
			if v != 0 {
				nz++
			}
		}
		w.Int(nz)
		for i, v := range s.latHist {
			if v != 0 {
				w.Int(i)
				w.I64(v)
			}
		}
	}
}

func (n *Network) decodeStats(r *ckpt.Reader) error {
	s := &n.stats
	for _, p := range []*int64{
		&s.Cycles, &s.PacketsInjected, &s.FlitsInjected, &s.FlitsReceived,
		&s.PacketsReceived, &s.Escapes, &s.FlitsLost, &s.FlitsDroppedFault,
		&s.FlitsCorrupted, &s.PacketsLost, &s.PacketsUnroutable,
		&s.TotalLatency, &s.QueuingLatency, &s.TransferLatency,
		&s.BlockingLatency, &s.HopsSum, &s.measureStart,
	} {
		*p = r.I64()
	}
	for b := range s.attr {
		s.attr[b] = r.I64()
	}
	nc := r.IntCount()
	s.classes = nil
	if nc > 0 {
		s.classes = make(map[int]*ClassStats, nc)
		for i := 0; i < nc && r.Err() == nil; i++ {
			c := r.Int()
			s.classes[c] = &ClassStats{Packets: r.I64(), TotalLatency: r.I64()}
		}
	}
	s.latHist = nil
	if r.Bool() {
		s.ensureHist()
		nz := r.IntCount()
		for i := 0; i < nz; i++ {
			b := r.Int()
			v := r.I64()
			if r.Err() != nil {
				return r.Err()
			}
			if b < 0 || b >= len(s.latHist) {
				return fmt.Errorf("noc: latency histogram bucket %d out of range", b)
			}
			s.latHist[b] = v
		}
	}
	return r.Err()
}

func (n *Network) encodeFaults(w *ckpt.Writer, index map[*Packet]int) {
	w.Bool(n.faultsArmed)
	if !n.faultsArmed {
		return
	}
	w.Int(len(n.faultEvents))
	for _, e := range n.faultEvents {
		w.I64(e.Cycle)
		w.U64(uint64(e.Kind))
		w.Int(e.Router)
		w.Int(e.Port)
		w.I64(e.Duration)
		w.Bool(e.Corrupt)
	}
	w.Int(n.faultNext)
	for _, d := range n.niDead {
		w.Bool(d)
	}
	w.Int(len(n.brokenQ))
	for _, p := range n.brokenQ {
		w.Int(index[p])
	}
}

func (n *Network) decodeFaults(r *ckpt.Reader, table []*Packet) error {
	armed := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if !armed {
		n.faultsArmed = false
		n.faultEvents, n.faultNext = nil, 0
		n.linkState, n.faultAware = nil, nil
		n.niDead, n.brokenQ = nil, nil
		return nil
	}
	ne := r.IntCount()
	if r.Err() != nil {
		return r.Err()
	}
	events := make([]fault.Event, ne)
	for i := 0; i < ne && r.Err() == nil; i++ {
		events[i] = fault.Event{
			Cycle:    r.I64(),
			Kind:     fault.Kind(r.U64()),
			Router:   r.Int(),
			Port:     r.Int(),
			Duration: r.I64(),
			Corrupt:  r.Bool(),
		}
		if err := events[i].Validate(n.cfg.Topo); r.Err() == nil && err != nil {
			return fmt.Errorf("noc: checkpoint %w", err)
		}
	}
	n.faultEvents = events
	n.faultNext = r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n.faultNext < 0 || n.faultNext > len(events) {
		return fmt.Errorf("noc: faultNext %d outside %d events", n.faultNext, len(events))
	}
	n.faultsArmed = true
	n.niDead = make([]bool, len(n.nis))
	for t := range n.niDead {
		n.niDead[t] = r.Bool()
	}
	nb := r.IntCount()
	n.brokenQ = nil
	for i := 0; i < nb; i++ {
		p, err := pktAt(r, table)
		if err != nil {
			return err
		}
		n.brokenQ = append(n.brokenQ, p)
	}

	// Rebuild the liveness overlay by replaying the permanent events that
	// had already struck. This reconstructs exactly the LinkState the
	// original built incrementally; the port-level kill effects (dead
	// flags, drained queues, zeroed credits) were restored directly from
	// the per-port sections above, so no kill* calls — which would mutate
	// statistics — run here.
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
	return r.Err()
}

func (n *Network) decode(r *ckpt.Reader, codec PayloadCodec, h ckpt.Header) error {
	if n.cycle != 0 || n.stats.PacketsInjected != 0 || n.flitsInNetwork != 0 || n.queuedPackets != 0 {
		return fmt.Errorf("noc: RestoreSnapshot target must be freshly constructed")
	}
	if err := n.checkSignature(r); err != nil {
		return err
	}
	n.lastMove = r.I64()

	// Packet table.
	np := r.IntCount()
	if r.Err() != nil {
		return r.Err()
	}
	table := make([]*Packet, np)
	for i := range table {
		p := &Packet{}
		p.ID = r.U64()
		p.Src = r.Int()
		p.Dst = r.Int()
		p.NumFlits = r.Int()
		p.Class = r.Int()
		p.CreateCycle = r.I64()
		p.InjectCycle = r.I64()
		p.RecvCycle = r.I64()
		p.Hops = r.Int()
		p.MinSlots = r.Int()
		p.vcClass = r.Int()
		p.escaped = r.Bool()
		p.received = r.Int()
		p.broken = r.Bool()
		p.dropWhy = DropReason(r.U64())
		p.headRecv = r.I64()
		p.atrVC = r.I64()
		p.atrSA = r.I64()
		p.atrCredit = r.I64()
		p.hopVC = int32(r.Int())
		p.hopCredit = int32(r.Int())
		if hasPayload := r.Bool(); hasPayload {
			if codec == nil {
				return fmt.Errorf("noc: checkpoint packet %d carries a payload but no PayloadCodec was given", p.ID)
			}
			payload, err := codec.DecodePayload(r)
			if err != nil {
				return fmt.Errorf("noc: decoding payload of packet %d: %w", p.ID, err)
			}
			p.Payload = payload
		}
		if r.Err() != nil {
			return r.Err()
		}
		table[i] = p
	}

	// Construction-dead ports (unwired mesh-edge stubs) keep their dead
	// flag; ports killed by faults additionally sever the downstream
	// input's credit channel, which is re-applied after decoding.
	bornDead := map[*outputPort]bool{}
	for ri := range n.routers {
		for _, op := range n.routers[ri].out {
			if op.dead {
				bornDead[op] = true
			}
		}
	}

	// Network interfaces.
	for t := range n.nis {
		q := &n.nis[t]
		qn := r.IntCount()
		q.queue = q.queue[:0]
		q.qHead = 0
		for i := 0; i < qn; i++ {
			p, err := pktAt(r, table)
			if err != nil {
				return err
			}
			q.queue = append(q.queue, p)
		}
		sn := r.IntCount()
		q.streams = q.streams[:0]
		for i := 0; i < sn; i++ {
			p, err := pktAt(r, table)
			if err != nil {
				return err
			}
			q.streams = append(q.streams, niStream{pkt: p, nextSeq: r.Int(), vc: r.Int()})
		}
		q.waitVC = r.Int()
		if err := decodeOutputPort(r, &q.up, table); err != nil {
			return fmt.Errorf("noc: terminal %d: %w", t, err)
		}
	}

	// Routers.
	for ri := range n.routers {
		rt := &n.routers[ri]
		n.inFlits[ri] = int32(r.Int())
		n.portMask[ri] = uint32(r.U64())
		n.evMask[ri] = uint32(r.U64())
		rt.bufOccSum = r.I64()
		rt.bufReads = r.I64()
		rt.bufWrites = r.I64()
		rt.xbarFlits = r.I64()
		rt.arbOps = r.I64()
		for b := range rt.atr {
			rt.atr[b] = r.I64()
		}
		for pi := range rt.in {
			ip := &rt.in[pi]
			ip.rr = r.Int()
			ip.flits = r.Int()
			ip.raMask = uint32(r.U64())
			ip.saMask = uint32(r.U64())
			for vi := range ip.vcs {
				vc := &ip.vcs[vi]
				if r.Bool() { // idle-VC flag: canonical empty state
					vc.state = vcIdle
					vc.outPort, vc.outVC, vc.class = 0, 0, 0
					vc.waitCycles = 0
					vc.cur = nil
					vc.headArrive = 0
					vc.buf.head, vc.buf.count = 0, 0
					for i := range vc.buf.buf {
						vc.buf.buf[i] = Flit{}
					}
					continue
				}
				vc.state = vcState(r.U64())
				vc.outPort = int16(r.Int())
				vc.outVC = int16(r.Int())
				vc.class = int16(r.Int())
				vc.waitCycles = int32(r.I64())
				cur, err := pktAt(r, table)
				if err != nil {
					return err
				}
				vc.cur = cur
				vc.headArrive = r.I64()
				bn := r.Int()
				if r.Err() != nil {
					return r.Err()
				}
				if bn > vc.buf.cap() {
					return fmt.Errorf("noc: router %d port %d vc %d: %d buffered flits exceed depth %d",
						ri, pi, vi, bn, vc.buf.cap())
				}
				vc.buf.head, vc.buf.count = 0, 0
				for i := range vc.buf.buf {
					vc.buf.buf[i] = Flit{}
				}
				for i := 0; i < bn; i++ {
					f, err := decodeFlit(r, table)
					if err != nil {
						return err
					}
					vc.buf.push(f)
				}
			}
		}
		for pi, op := range rt.out {
			if err := decodeOutputPort(r, op, table); err != nil {
				return fmt.Errorf("noc: router %d port %d: %w", ri, pi, err)
			}
		}
	}

	if err := n.decodeStats(r); err != nil {
		return err
	}
	if err := n.decodeFaults(r, table); err != nil {
		return err
	}

	// Fault-killed ports lose the downstream credit channel: the upstream
	// pointer of the input port they feed is severed, exactly as killPort
	// did in the original run.
	for ri := range n.routers {
		for _, op := range n.routers[ri].out {
			if op.dead && !op.isTerm && !bornDead[op] {
				n.routers[op.link.Router].in[op.link.Port].upstream = nil
			}
		}
	}
	for t := range n.nis {
		up := &n.nis[t].up
		if up.dead {
			n.routers[up.link.Router].in[up.link.Port].upstream = nil
		}
	}

	n.cycle = h.Cycle
	n.flitsInNetwork = int(h.Flits)
	n.queuedPackets = int(h.Queued)
	n.nextPktID = h.NextPktID
	return r.Err()
}

// sortedXferKeys orders transfer keys deterministically for encoding.
func sortedXferKeys[V any](m map[xferKey]V) []xferKey {
	keys := make([]xferKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.seq < b.seq
	})
	return keys
}

func sortedPairKeys[V any](m map[pairKey]V) []pairKey {
	keys := make([]pairKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	return keys
}

// encodeValue serializes the small set of payload value types the
// reliability layer supports on Transfer.Payload.
func encodeValue(w *ckpt.Writer, v any) error {
	switch x := v.(type) {
	case nil:
		w.U64(0)
	case bool:
		w.U64(1)
		w.Bool(x)
	case int:
		w.U64(2)
		w.I64(int64(x))
	case int64:
		w.U64(3)
		w.I64(x)
	case uint64:
		w.U64(4)
		w.U64(x)
	case float64:
		w.U64(5)
		w.F64(x)
	case string:
		w.U64(6)
		w.Str(x)
	case []byte:
		w.U64(7)
		w.Bytes(x)
	default:
		return fmt.Errorf("noc: unsupported transfer payload type %T", v)
	}
	return nil
}

func decodeValue(r *ckpt.Reader) (any, error) {
	switch tag := r.U64(); tag {
	case 0:
		return nil, r.Err()
	case 1:
		return r.Bool(), r.Err()
	case 2:
		return r.Int(), r.Err()
	case 3:
		return r.I64(), r.Err()
	case 4:
		return r.U64(), r.Err()
	case 5:
		return r.F64(), r.Err()
	case 6:
		return r.Str(), r.Err()
	case 7:
		return r.Bytes(), r.Err()
	default:
		return nil, fmt.Errorf("noc: unknown transfer payload tag %d", tag)
	}
}

// relCodec maps in-flight packet payloads (*Transfer) to serialized
// transfer records. Every reliable packet's payload is the transfer it
// carries; a packet can outlive its transfer's pending entry (a late
// duplicate after delivery), so transfers are serialized in full and
// deduplicated by key on decode.
type relCodec struct {
	xfers map[xferKey]*Transfer // decode: canonical transfer per key
}

func (c *relCodec) EncodePayload(w *ckpt.Writer, payload any) error {
	tr, ok := payload.(*Transfer)
	if !ok {
		return fmt.Errorf("noc: reliable packet payload is %T, want *Transfer", payload)
	}
	return encodeTransfer(w, tr)
}

func (c *relCodec) DecodePayload(r *ckpt.Reader) (any, error) {
	tr, err := decodeTransfer(r)
	if err != nil {
		return nil, err
	}
	k := xferKey{tr.Src, tr.Dst, tr.Seq}
	if existing, ok := c.xfers[k]; ok {
		return existing, nil
	}
	c.xfers[k] = tr
	return tr, nil
}

func encodeTransfer(w *ckpt.Writer, tr *Transfer) error {
	w.Int(tr.Src)
	w.Int(tr.Dst)
	w.U64(tr.Seq)
	w.Int(tr.NumFlits)
	w.Int(tr.Class)
	w.I64(tr.Created)
	w.Int(tr.Attempts)
	w.I64(tr.deadline)
	return encodeValue(w, tr.Payload)
}

func decodeTransfer(r *ckpt.Reader) (*Transfer, error) {
	tr := &Transfer{
		Src:      r.Int(),
		Dst:      r.Int(),
		Seq:      r.U64(),
		NumFlits: r.Int(),
		Class:    r.Int(),
		Created:  r.I64(),
		Attempts: r.Int(),
		deadline: r.I64(),
	}
	payload, err := decodeValue(r)
	if err != nil {
		return nil, err
	}
	tr.Payload = payload
	return tr, r.Err()
}

// Snapshot serializes the reliability layer plus its wrapped network.
// Transfer payloads must be nil or a basic value type (bool, int, int64,
// uint64, float64, string, []byte).
func (rel *Reliable) Snapshot() ([]byte, error) {
	w := ckpt.NewWriter(ckpt.Header{
		Kind:        KindReliable,
		Version:     relSnapshotVersion,
		Cycle:       rel.net.cycle,
		Flits:       int64(rel.net.flitsInNetwork),
		Queued:      int64(rel.net.queuedPackets),
		NextPktID:   rel.net.nextPktID,
		Fingerprint: rel.net.Fingerprint(),
	})

	seqKeys := sortedPairKeys(rel.nextSeq)
	w.Int(len(seqKeys))
	for _, k := range seqKeys {
		w.Int(k.src)
		w.Int(k.dst)
		w.U64(rel.nextSeq[k])
	}

	recvKeys := sortedPairKeys(rel.recv)
	w.Int(len(recvKeys))
	for _, k := range recvKeys {
		d := rel.recv[k]
		w.Int(k.src)
		w.Int(k.dst)
		w.U64(d.next)
		seen := make([]uint64, 0, len(d.seen))
		for s := range d.seen {
			seen = append(seen, s)
		}
		sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		w.Int(len(seen))
		for _, s := range seen {
			w.U64(s)
		}
	}

	pendKeys := sortedXferKeys(rel.pending)
	w.Int(len(pendKeys))
	for _, k := range pendKeys {
		if err := encodeTransfer(w, rel.pending[k]); err != nil {
			return nil, err
		}
	}

	// The timer heap array is serialized verbatim: it is already a valid
	// heap and its layout determines tie-break fire order.
	w.Int(len(rel.timers))
	for _, it := range rel.timers {
		w.I64(it.deadline)
		w.U64(it.order)
		w.Int(it.key.src)
		w.Int(it.key.dst)
		w.U64(it.key.seq)
	}
	w.U64(rel.order)

	s := &rel.stats
	for _, v := range []int64{s.Sent, s.Delivered, s.Duplicates, s.Retransmissions,
		s.Recovered, s.Abandoned, s.Unreachable, s.LatencySum} {
		w.I64(v)
	}

	if err := rel.net.encode(w, &relCodec{}); err != nil {
		return nil, err
	}
	return w.Finish(), nil
}

// RestoreSnapshot loads a Reliable checkpoint. rel must wrap a freshly
// constructed Network built from the same Config as the original.
func (rel *Reliable) RestoreSnapshot(data []byte) error {
	r, err := ckpt.NewReader(data)
	if err != nil {
		return err
	}
	h := r.Header()
	if h.Kind != KindReliable {
		return fmt.Errorf("noc: checkpoint kind %q, want %q", h.Kind, KindReliable)
	}
	if h.Version != relSnapshotVersion {
		return fmt.Errorf("noc: checkpoint version %d, want %d", h.Version, relSnapshotVersion)
	}

	codec := &relCodec{xfers: map[xferKey]*Transfer{}}

	ns := r.IntCount()
	rel.nextSeq = make(map[pairKey]uint64, ns)
	for i := 0; i < ns && r.Err() == nil; i++ {
		k := pairKey{src: r.Int(), dst: r.Int()}
		rel.nextSeq[k] = r.U64()
	}

	nr := r.IntCount()
	rel.recv = make(map[pairKey]*dedupe, nr)
	for i := 0; i < nr && r.Err() == nil; i++ {
		k := pairKey{src: r.Int(), dst: r.Int()}
		d := &dedupe{next: r.U64()}
		sn := r.IntCount()
		if sn > 0 {
			d.seen = make(map[uint64]bool, sn)
			for j := 0; j < sn && r.Err() == nil; j++ {
				d.seen[r.U64()] = true
			}
		}
		rel.recv[k] = d
	}

	np := r.IntCount()
	rel.pending = make(map[xferKey]*Transfer, np)
	for i := 0; i < np; i++ {
		tr, err := decodeTransfer(r)
		if err != nil {
			return err
		}
		k := xferKey{tr.Src, tr.Dst, tr.Seq}
		rel.pending[k] = tr
		codec.xfers[k] = tr
	}

	nt := r.IntCount()
	if r.Err() != nil {
		return r.Err()
	}
	rel.timers = make(timerHeap, nt)
	for i := 0; i < nt && r.Err() == nil; i++ {
		rel.timers[i] = timerItem{
			deadline: r.I64(),
			order:    r.U64(),
			key:      xferKey{src: r.Int(), dst: r.Int(), seq: r.U64()},
		}
	}
	rel.order = r.U64()

	s := &rel.stats
	for _, p := range []*int64{&s.Sent, &s.Delivered, &s.Duplicates, &s.Retransmissions,
		&s.Recovered, &s.Abandoned, &s.Unreachable, &s.LatencySum} {
		*p = r.I64()
	}
	if r.Err() != nil {
		return r.Err()
	}

	if err := rel.net.decode(r, codec, h); err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	if got := rel.net.Fingerprint(); got != h.Fingerprint {
		return fmt.Errorf("noc: restored fingerprint %016x != checkpoint %016x (config mismatch?)", got, h.Fingerprint)
	}
	return nil
}
