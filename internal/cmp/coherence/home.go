package coherence

import (
	"fmt"

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
	e, hit := h.l2.Lookup(m.Line)
	if !hit {
		h.L2Misses++
		tx := h.getTx(m)
		h.busy[m.Line] = tx
		if h.makeRoom(tx) {
			h.fetch(tx)
		}
		return
	}
	h.L2Hits++
	d := &e.Payload
	owner := int(d.Owner)
	switch m.Type {
	case GetS:
		if owner >= 0 && owner != m.Src {
			tx := h.getTx(m)
			tx.stage, tx.fwdKeepS = txFwd, true
			h.busy[m.Line] = tx
			h.send(FwdGetS, m.Line, owner, m.Src, false)
			return
		}
		if !d.hasCopies() {
			// First reader gets an exclusive clean copy.
			d.Owner = int16(m.Src)
			h.send(DataE, m.Line, m.Src, m.Src, false)
			return
		}
		if owner == m.Src {
			// The owner re-reads its own line (it may have silently
			// dropped a clean E copy); refresh it as exclusive again.
			h.send(DataE, m.Line, m.Src, m.Src, false)
			return
		}
		d.Sharers |= 1 << uint(m.Src)
		h.send(Data, m.Line, m.Src, m.Src, false)
	case GetM:
		if owner >= 0 && owner != m.Src {
			tx := h.getTx(m)
			tx.stage = txFwd
			h.busy[m.Line] = tx
			h.send(FwdGetM, m.Line, owner, m.Src, false)
			return
		}
		others := d.Sharers &^ (1 << uint(m.Src))
		if others != 0 {
			tx := h.getTx(m)
			tx.stage = txInv
			for t := 0; t < 64; t++ {
				if others&(1<<uint(t)) != 0 {
					tx.acksLeft++
					h.send(Inv, m.Line, t, m.Src, false)
				}
			}
			h.busy[m.Line] = tx
			return
		}
		h.grantM(m, d)
	}
}

// grantM hands the line to a writer.
func (h *Home) grantM(m Msg, d *DirEntry) {
	d.Sharers = 0
	d.Owner = int16(m.Src)
	d.Dirty = true
	h.send(DataM, m.Line, m.Src, m.Src, false)
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
	for t := 0; t < 64; t++ {
		if d.Sharers&(1<<uint(t)) != 0 {
			tx.acksLeft++
			h.send(Inv, v.Tag, t, h.tile, false)
		}
	}
	return false
}

// dropVictim evicts a recalled or copy-free victim, writing back when
// dirty.
func (h *Home) dropVictim(line uint64, dirty bool) {
	if dirty {
		h.MemWrites++
		h.send(MemWrite, line, h.mcFor(line), h.tile, true)
	}
	h.l2.Invalidate(line)
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
	h.l2.Insert(line, cache.Shared, DirEntry{Owner: -1})
	req := tx.req
	delete(h.busy, line)
	h.process(req)
	h.drain(line)
	h.putTx(tx)
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
		if h.busy[m.Line] != tx {
			return
		}
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
		if m.Dirty {
			if e, ok := h.l2.Peek(m.Line); ok {
				e.Payload.Dirty = true
			}
		}
		tx.acksLeft--
		if tx.acksLeft > 0 {
			return
		}
		e, ok := h.l2.Peek(m.Line)
		if !ok {
			panic("coherence: invalidation target vanished from L2")
		}
		d := &e.Payload
		d.Sharers = 0
		delete(h.busy, m.Line)
		h.grantM(tx.req, d)
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
	d := &e.Payload
	oldOwner := d.Owner
	if m.Dirty {
		d.Dirty = true
	}
	req := tx.req
	delete(h.busy, m.Line)
	if tx.fwdKeepS {
		// GetS flow: the owner downgraded (keeping a shared copy unless it
		// had already evicted the line).
		d.Owner = -1
		if m.Type == FwdAckData {
			d.Sharers |= 1 << uint(oldOwner)
		}
		d.Sharers |= 1 << uint(req.Src)
		h.send(Data, m.Line, req.Src, req.Src, false)
	} else {
		// GetM flow: the owner invalidated; hand ownership over.
		d.Owner = -1
		h.grantM(req, d)
	}
	h.drain(m.Line)
	h.putTx(tx)
}

func (h *Home) handlePutM(m Msg) {
	// Write-backs are acknowledged unconditionally. The directory only
	// changes when the writer is still the registered owner (a racing
	// forward may already have moved ownership).
	if e, ok := h.l2.Peek(m.Line); ok {
		d := &e.Payload
		if int(d.Owner) == m.Src {
			d.Owner = -1
			d.Dirty = true
		}
	}
	h.send(WBAck, m.Line, m.Src, m.Src, false)
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
