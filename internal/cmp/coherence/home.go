package coherence

import (
	"fmt"
	"math/bits"

	"heteronoc/internal/cmp/cache"
)

// DirEntry is the full-map directory state embedded in each L2 line. It
// is stored by value in the line (16 bytes, no pointers), so the L2 line
// arrays carry nothing for the garbage collector to scan.
type DirEntry struct {
	// Sharers is a bit per tile with an S copy.
	Sharers uint64
	// Owner holds the tile with an E or M copy, -1 when none.
	Owner int16
	// Dirty marks the L2 copy more recent than memory.
	Dirty bool
}

func (d *DirEntry) hasCopies() bool { return d.Owner >= 0 || d.Sharers != 0 }

// txStage tracks a blocked home transaction.
type txStage uint8

const (
	txRecall txStage = iota // invalidating a victim's copies
	txMem                   // waiting for memory data
	txInv                   // invalidating sharers for a GetM
	txFwd                   // waiting for the owner's forward response
)

type homeTx struct {
	stage    txStage
	req      Msg
	acksLeft int
	// victim is the line being recalled to make room for req's line.
	victim      uint64
	victimDirty bool
	// filled marks that memory data already arrived (recall happening
	// after the fetch because the set refilled meanwhile).
	filled bool
	// fwdKeepS marks a FwdGetS flow (the owner stays a sharer when it
	// answers with data).
	fwdKeepS bool
}

// Home is the L2 bank + directory controller of one tile.
type Home struct {
	tile int
	l2   *cache.Cache[DirEntry]
	tp   Transport
	// mcFor maps a line to the terminal of its memory controller.
	mcFor func(line uint64) int
	// BankLatency is charged on each message the home emits.
	BankLatency int64

	// busy maps a line to its transaction. A recall aliases the victim
	// line to the same transaction so conflicting requests queue up.
	busy    map[uint64]*homeTx
	waiting map[uint64][]Msg

	// txFree recycles transactions. A tx returns to the pool at the end of
	// the handler that removes its last busy alias (the rare makeRoom
	// re-queue path leaves its tx to the GC rather than risk a
	// double-free).
	txFree []*homeTx

	// Statistics.
	L2Hits, L2Misses, Recalls, MemReads, MemWrites int64
}

// NewHome builds the home controller for a tile.
func NewHome(tile int, l2 *cache.Cache[DirEntry], tp Transport, mcFor func(uint64) int) *Home {
	return &Home{
		tile: tile, l2: l2, tp: tp, mcFor: mcFor,
		BankLatency: 6,
		busy:        make(map[uint64]*homeTx),
		waiting:     make(map[uint64][]Msg),
	}
}

func (h *Home) getTx(req Msg) *homeTx {
	if n := len(h.txFree); n > 0 {
		tx := h.txFree[n-1]
		h.txFree = h.txFree[:n-1]
		*tx = homeTx{req: req}
		return tx
	}
	return &homeTx{req: req}
}

func (h *Home) putTx(tx *homeTx) { h.txFree = append(h.txFree, tx) }

// Busy reports whether a transaction is in flight for the line (tests).
func (h *Home) Busy(line uint64) bool { return h.busy[line] != nil }

// Pending returns the number of requests queued behind busy lines.
func (h *Home) Pending() int {
	n := 0
	for _, q := range h.waiting {
		n += len(q)
	}
	return n
}

// Handle processes one protocol message addressed to this home.
func (h *Home) Handle(m Msg) {
	switch m.Type {
	case GetS, GetM:
		if h.busy[m.Line] != nil {
			h.waiting[m.Line] = append(h.waiting[m.Line], m)
			return
		}
		h.process(m)
	case PutM:
		h.handlePutM(m)
	case InvAck:
		h.handleInvAck(m)
	case FwdAckData, FwdNoData:
		h.handleFwdResp(m)
	case MemData:
		h.handleMemData(m)
	default:
		panic(fmt.Sprintf("coherence: home %d got unexpected %v", h.tile, m.Type))
	}
}

func (h *Home) send(t MsgType, line uint64, dst, reqer int, dirty bool) {
	h.tp.Send(Msg{Type: t, Line: line, Src: h.tile, Dst: dst, Reqer: reqer, Dirty: dirty}, h.BankLatency)
}

// process starts servicing a GetS/GetM whose line is not busy.
func (h *Home) process(m Msg) {
	e, hit := h.lookup(m.Line)
	if !hit {
		tx := h.getTx(m)
		h.busy[m.Line] = tx
		if h.makeRoom(tx) {
			h.fetch(tx)
		}
		return
	}
	d := &e.Payload
	switch decide(d, m.Src, m.Type == GetM) {
	case grantS:
		h.send(Data, m.Line, m.Src, m.Src, false)
	case grantE:
		h.send(DataE, m.Line, m.Src, m.Src, false)
	case grantM:
		h.send(DataM, m.Line, m.Src, m.Src, false)
	case fwdS, fwdM:
		tx := h.getTx(m)
		tx.stage, tx.fwdKeepS = txFwd, m.Type == GetS
		h.busy[m.Line] = tx
		fwd := FwdGetM
		if tx.fwdKeepS {
			fwd = FwdGetS
		}
		h.send(fwd, m.Line, int(d.Owner), m.Src, false)
	case invSharers:
		tx := h.getTx(m)
		tx.stage = txInv
		for others := d.Sharers &^ (1 << uint(m.Src)); others != 0; others &= others - 1 {
			tx.acksLeft++
			h.send(Inv, m.Line, bits.TrailingZeros64(others), m.Src, false)
		}
		h.busy[m.Line] = tx
	}
}

// lookup probes the bank for a request's line, counting the L2 hit or
// miss.
func (h *Home) lookup(line uint64) (*cache.Line[DirEntry], bool) {
	e, hit := h.l2.Lookup(line)
	if hit {
		h.L2Hits++
	} else {
		h.L2Misses++
	}
	return e, hit
}

// grant is the home's answer to a request for a line the bank holds.
type grant uint8

const (
	grantS     grant = iota // a Shared copy
	grantE                  // an Exclusive clean copy
	grantM                  // a writable copy
	fwdS                    // the owner must downgrade first (FwdGetS)
	fwdM                    // the owner must give the line up first (FwdGetM)
	invSharers              // the other sharers must be invalidated first
)

// decide applies the directory transition for a GetS (write false) or a
// GetM from src and returns the grant. The three deferred grants change
// nothing yet: forwarded or setM completes them once the owner or the
// sharers have answered.
func decide(d *DirEntry, src int, write bool) grant {
	owner := int(d.Owner)
	if owner >= 0 && owner != src {
		if write {
			return fwdM
		}
		return fwdS
	}
	switch {
	case write && d.Sharers&^(1<<uint(src)) != 0:
		return invSharers
	case write:
		setM(d, src)
		return grantM
	case !d.hasCopies():
		// First reader gets an exclusive clean copy.
		d.Owner = int16(src)
		return grantE
	case owner == src:
		// The owner re-reads its own line (it may have silently dropped a
		// clean E copy); refresh it as exclusive again.
		return grantE
	}
	d.Sharers |= 1 << uint(src)
	return grantS
}

// setM hands the line to a writer.
func setM(d *DirEntry, src int) {
	d.Sharers = 0
	d.Owner = int16(src)
	d.Dirty = true
}

// forwarded completes a forwarded request from src once the old owner has
// answered: held says whether it still had the line, dirty whether its
// copy was modified. A GetS (write false) leaves the old owner, when it
// held the line, and the requester sharing; a GetM hands ownership over.
func forwarded(d *DirEntry, src int, write, held, dirty bool) {
	oldOwner := d.Owner
	if dirty {
		d.Dirty = true
	}
	d.Owner = -1
	if write {
		setM(d, src)
		return
	}
	if held {
		d.Sharers |= 1 << uint(oldOwner)
	}
	d.Sharers |= 1 << uint(src)
}

// makeRoom ensures the target set has a free way for tx.req.Line. It
// returns true when room is available now; otherwise it has started a
// recall and the transaction continues from handleInvAck.
func (h *Home) makeRoom(tx *homeTx) bool {
	v := h.l2.VictimWhere(tx.req.Line, func(tag uint64) bool { return h.busy[tag] == nil })
	if v == nil {
		// Every way is carrying a transaction (16-way sets make this
		// effectively unreachable); serialize behind the LRU one.
		anyV := h.l2.Victim(tx.req.Line)
		delete(h.busy, tx.req.Line)
		h.waiting[anyV.Tag] = append(h.waiting[anyV.Tag], tx.req)
		return false
	}
	if !v.State.Valid() {
		return true
	}
	d := &v.Payload
	if !d.hasCopies() {
		h.dropVictim(v.Tag, d.Dirty)
		return true
	}
	// Recall every cached copy before dropping the victim.
	tx.stage = txRecall
	tx.victim = v.Tag
	tx.victimDirty = d.Dirty
	h.busy[v.Tag] = tx // alias: conflicting requests queue on the victim
	h.Recalls++
	if d.Owner >= 0 {
		tx.acksLeft++
		h.send(Inv, v.Tag, int(d.Owner), h.tile, false)
	}
	for s := d.Sharers; s != 0; s &= s - 1 {
		tx.acksLeft++
		h.send(Inv, v.Tag, bits.TrailingZeros64(s), h.tile, false)
	}
	return false
}

// dropVictim evicts a recalled or copy-free victim, writing back when
// dirty.
func (h *Home) dropVictim(line uint64, dirty bool) {
	if h.drop(line, dirty) {
		h.send(MemWrite, line, h.mcFor(line), h.tile, true)
	}
}

// drop evicts line from the bank and reports whether memory must take
// its data back (dirty).
func (h *Home) drop(line uint64, dirty bool) bool {
	if dirty {
		h.MemWrites++
	}
	h.l2.Invalidate(line)
	return dirty
}

// fetch issues the memory read for a missing line.
func (h *Home) fetch(tx *homeTx) {
	tx.stage = txMem
	h.MemReads++
	h.send(MemRead, tx.req.Line, h.mcFor(tx.req.Line), tx.req.Src, false)
}

// install completes a fill: insert the line and serve the original
// request synchronously (the fresh directory is empty, so GetS gets E and
// GetM gets M without further blocking).
func (h *Home) install(tx *homeTx) {
	line := tx.req.Line
	h.insert(line)
	req := tx.req
	delete(h.busy, line)
	h.process(req)
	h.drain(line)
	h.putTx(tx)
}

// insert places a fetched line in the bank with an empty directory entry.
func (h *Home) insert(line uint64) {
	h.l2.Insert(line, cache.Shared, DirEntry{Owner: -1})
}

func (h *Home) handleMemData(m Msg) {
	tx := h.busy[m.Line]
	if tx == nil || tx.stage != txMem {
		panic(fmt.Sprintf("coherence: home %d MemData for line %#x without txMem", h.tile, m.Line))
	}
	tx.filled = true
	if !h.makeRoom(tx) {
		// The set refilled while we fetched; a second recall round is in
		// progress (or the request was re-queued entirely — in that case
		// the fetched data is dropped and refetched later, a rare and
		// harmless inefficiency).
		return
	}
	h.install(tx)
}

func (h *Home) handleInvAck(m Msg) {
	tx := h.busy[m.Line]
	if tx == nil {
		panic(fmt.Sprintf("coherence: home %d stray InvAck line %#x", h.tile, m.Line))
	}
	switch {
	case tx.stage == txRecall && tx.victim == m.Line:
		if m.Dirty {
			tx.victimDirty = true
		}
		tx.acksLeft--
		if tx.acksLeft > 0 {
			return
		}
		h.dropVictim(tx.victim, tx.victimDirty)
		delete(h.busy, tx.victim)
		victim := tx.victim
		if tx.filled {
			h.install(tx)
		} else {
			h.fetch(tx)
		}
		h.drain(victim)
	case tx.stage == txInv:
		e, ok := h.l2.Peek(m.Line)
		if !ok {
			panic("coherence: invalidation target vanished from L2")
		}
		if m.Dirty {
			e.Payload.Dirty = true
		}
		tx.acksLeft--
		if tx.acksLeft > 0 {
			return
		}
		delete(h.busy, m.Line)
		setM(&e.Payload, tx.req.Src)
		h.send(DataM, m.Line, tx.req.Src, tx.req.Src, false)
		h.drain(m.Line)
		h.putTx(tx)
	default:
		panic(fmt.Sprintf("coherence: home %d InvAck in stage %d", h.tile, tx.stage))
	}
}

func (h *Home) handleFwdResp(m Msg) {
	tx := h.busy[m.Line]
	if tx == nil || tx.stage != txFwd {
		panic(fmt.Sprintf("coherence: home %d stray forward response line %#x", h.tile, m.Line))
	}
	e, ok := h.l2.Peek(m.Line)
	if !ok {
		panic("coherence: forwarded line vanished from L2")
	}
	req := tx.req
	delete(h.busy, m.Line)
	forwarded(&e.Payload, req.Src, !tx.fwdKeepS, m.Type == FwdAckData, m.Dirty)
	if tx.fwdKeepS {
		h.send(Data, m.Line, req.Src, req.Src, false)
	} else {
		h.send(DataM, m.Line, req.Src, req.Src, false)
	}
	h.drain(m.Line)
	h.putTx(tx)
}

func (h *Home) handlePutM(m Msg) {
	// Write-backs are acknowledged unconditionally.
	h.putM(m.Line, m.Src)
	h.send(WBAck, m.Line, m.Src, m.Src, false)
}

// putM applies src's write-back of line. The directory only changes when
// the writer is still the registered owner (a racing forward may already
// have moved ownership).
func (h *Home) putM(line uint64, src int) {
	if e, ok := h.l2.Peek(line); ok && int(e.Payload.Owner) == src {
		e.Payload.Owner = -1
		e.Payload.Dirty = true
	}
}

// drain reprocesses requests queued behind a finished transaction.
func (h *Home) drain(line uint64) {
	q := h.waiting[line]
	if len(q) == 0 {
		return
	}
	delete(h.waiting, line)
	for i, m := range q {
		if h.busy[line] != nil {
			h.waiting[line] = append(h.waiting[line], q[i:]...)
			return
		}
		h.process(m)
	}
}

// Directory exposes a line's directory entry for invariant checking.
func (h *Home) Directory(line uint64) (DirEntry, bool) {
	if e, ok := h.l2.Peek(line); ok {
		return e.Payload, true
	}
	return DirEntry{}, false
}

// L2 exposes the bank's cache array for diagnostics and tests.
func (h *Home) L2() *cache.Cache[DirEntry] { return h.l2 }
