// Package noc is a cycle-accurate simulator for virtual-channel wormhole
// networks with credit-based flow control and a two-stage router pipeline
// (route compute / VC allocation / switch allocation, then switch traversal)
// followed by a one-cycle link traversal, per the Peh-Dally router the paper
// bases its design on. Routers are individually configurable: per-router VC
// counts and a wide (double-width) crossbar/link option let a single network
// mix the paper's small, baseline and big routers. Wide links transport two
// flits per cycle; the separable switch allocator combines two flits from
// one or two input ports toward the same wide output, exactly the paper's
// flit-combining mechanism (Section 3), charging two credits downstream.
package noc

// FlitKind distinguishes the phases of a wormhole packet.
type FlitKind uint8

const (
	// HeadFlit opens a packet: it carries the route and allocates VCs.
	HeadFlit FlitKind = iota
	// BodyFlit follows the head on the allocated path.
	BodyFlit
	// TailFlit closes the packet and releases its VCs.
	TailFlit
	// SingleFlit is a one-flit packet (head and tail at once), used for
	// address/control packets.
	SingleFlit
)

func (k FlitKind) String() string {
	switch k {
	case HeadFlit:
		return "head"
	case BodyFlit:
		return "body"
	case TailFlit:
		return "tail"
	case SingleFlit:
		return "single"
	}
	return "?"
}

// IsHead reports whether the flit opens a packet.
func (k FlitKind) IsHead() bool { return k == HeadFlit || k == SingleFlit }

// IsTail reports whether the flit closes a packet.
func (k FlitKind) IsTail() bool { return k == TailFlit || k == SingleFlit }

// Packet is the unit of injection. Src and Dst are terminal IDs. NumFlits
// depends on the packet class and the network flit width: the paper's
// 1024-bit data packets are 6 flits at 192 bits (homogeneous) or 8 flits at
// 128 bits (HeteroNoC); address packets are a single flit in both.
type Packet struct {
	ID       uint64
	Src, Dst int
	NumFlits int
	// Class is an application-level tag carried through the network
	// untouched (e.g. request vs response vs coherence); the CMP simulator
	// dispatches on it.
	Class int
	// Payload carries an opaque reference for the CMP simulator.
	Payload any

	// CreateCycle is when the packet entered its source queue.
	CreateCycle int64
	// InjectCycle is when the head flit entered the source router.
	InjectCycle int64
	// RecvCycle is when the tail flit was consumed at the destination.
	RecvCycle int64
	// Hops counts router-to-router link traversals.
	Hops int
	// MinSlots is the narrowest link bandwidth (flits/cycle) on the path
	// taken, used for the ideal-serialization term of the latency breakdown.
	MinSlots int

	vcClass  int  // current routing VC class
	escaped  bool // diverted to the escape sub-network (table routing)
	received int  // flits consumed at destination

	// Attribution state (see attrib.go). headRecv is the cycle the head
	// flit was consumed at the destination; hopVC/hopCredit are per-hop
	// scratch counters settled into the atr* lifetime buckets when the
	// head leaves each router.
	headRecv         int64
	atrVC            int64
	atrSA            int64
	atrCredit        int64
	hopVC, hopCredit int32

	// broken marks a packet that lost a flit to a fault (or lost its route)
	// and is queued for purging; dropWhy records the first cause.
	broken  bool
	dropWhy DropReason
}

// Flit is the unit of flow control. Flits are copied by value through VC
// buffers and link-event queues every cycle, so the struct is packed into
// 24 bytes (Seq as int32; packet flit counts are far below that range).
type Flit struct {
	Pkt *Packet
	// arrive is the cycle the flit was written into its current input
	// buffer; the flit becomes eligible for stage-1 arbitration on the next
	// cycle (one-cycle buffer write / pipeline stage boundary).
	arrive int64
	Seq    int32
	Kind   FlitKind
	// Csum is the header checksum, computed at emission and verified at
	// every link delivery — but only on networks with a fault plan armed,
	// so fault-free runs skip both hashes. A transient corrupt fault flips
	// checksum bits in flight; the receiving router detects the mismatch
	// and drops the flit.
	Csum uint16
}

// flitKind is the kind of flit seq of a numFlits-flit packet. The NI
// emits a packet's flits in sequence order, so the kind follows from the
// position alone.
func flitKind(numFlits, seq int) FlitKind {
	switch {
	case numFlits == 1:
		return SingleFlit
	case seq == 0:
		return HeadFlit
	case seq == numFlits-1:
		return TailFlit
	}
	return BodyFlit
}
