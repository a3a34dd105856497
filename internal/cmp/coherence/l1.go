package coherence

import (
	"fmt"

	"heteronoc/internal/cmp/cache"
)

// AccessResult is the outcome of a core-side cache access.
type AccessResult uint8

const (
	// Hit: the access completed against the L1.
	Hit AccessResult = iota
	// MissIssued: a request went to the home; the callback fires on fill.
	MissIssued
	// Coalesced: an outstanding MSHR covers the access; the callback fires
	// when that miss fills.
	Coalesced
	// Blocked: no MSHR available (or a conflicting upgrade is in flight);
	// the core must retry later.
	Blocked
)

type l1MSHR struct {
	line      uint64
	wantM     bool
	callbacks []func()
	// prefetch marks speculative fills: they install tagged so a later
	// demand hit can be counted as a useful prefetch.
	prefetch bool
}

// L1 is the private-cache controller of one tile. It implements the
// requester side of the MESI protocol: GetS/GetM on misses, silent E->M
// upgrades, PutM write-backs with a write-back buffer that answers racing
// forwards, and Inv/Fwd servicing.
type L1 struct {
	tile int
	// c's line payload is the prefetch flag: set on a speculative fill,
	// cleared by the first demand hit.
	c  *cache.Cache[bool]
	tp Transport
	// homeFor maps a line to its home tile.
	homeFor func(line uint64) int
	// Latency is charged on each message the L1 emits.
	Latency int64
	// MaxMSHR bounds outstanding misses (16 per core in Table 2).
	MaxMSHR int
	// PrefetchNextLine issues a GetS for line+1 on every demand miss
	// (a simple stream prefetcher; off by default, used by the
	// prefetcher ablation).
	PrefetchNextLine bool

	// mshrLine and mshrs are the MSHR slot table: slot i tracks the miss
	// on line mshrLine[i]. At most MaxMSHR slots are live and nothing
	// depends on slot order, so lookups scan the contiguous keys and a
	// fill swaps the last slot into the freed one. (A map here would
	// empty after nearly every warmup fill, and Go reseeds an emptied
	// map's hash from the runtime RNG each time.)
	mshrLine []uint64
	mshrs    []*l1MSHR
	// mshrFree recycles MSHR entries (and their callback slices) between
	// misses; the fill path returns them after callbacks run.
	mshrFree []*l1MSHR
	// wb counts in-flight PutMs per line (between PutM and WBAck) so
	// racing forwards can still be answered with data.
	wb map[uint64]int

	// Statistics.
	Hits, Misses, Coalesces, Blocks, Upgrades, Invalidations int64
	PrefetchesIssued, PrefetchesUseful                       int64
}

// NewL1 builds the L1 controller for a tile.
func NewL1(tile int, c *cache.Cache[bool], tp Transport, homeFor func(uint64) int) *L1 {
	return &L1{
		tile: tile, c: c, tp: tp, homeFor: homeFor,
		Latency: 2, MaxMSHR: 16,
		wb: make(map[uint64]int),
	}
}

// findMSHR returns the outstanding miss on line, or nil.
func (l *L1) findMSHR(line uint64) *l1MSHR {
	for i, k := range l.mshrLine {
		if k == line {
			return l.mshrs[i]
		}
	}
	return nil
}

// addMSHR opens a miss on a line that has none outstanding.
func (l *L1) addMSHR(line uint64, wantM, prefetch bool) *l1MSHR {
	m := l.getMSHR(line, wantM, prefetch)
	l.mshrLine = append(l.mshrLine, line)
	l.mshrs = append(l.mshrs, m)
	return m
}

// removeMSHR frees the slot of the miss on line.
func (l *L1) removeMSHR(line uint64) {
	for i, k := range l.mshrLine {
		if k == line {
			last := len(l.mshrLine) - 1
			l.mshrLine[i], l.mshrs[i] = l.mshrLine[last], l.mshrs[last]
			l.mshrs[last] = nil
			l.mshrLine, l.mshrs = l.mshrLine[:last], l.mshrs[:last]
			return
		}
	}
}

func (l *L1) getMSHR(line uint64, wantM, prefetch bool) *l1MSHR {
	var m *l1MSHR
	if n := len(l.mshrFree); n > 0 {
		m = l.mshrFree[n-1]
		l.mshrFree = l.mshrFree[:n-1]
	} else {
		m = &l1MSHR{}
	}
	m.line, m.wantM, m.prefetch = line, wantM, prefetch
	return m
}

func (l *L1) putMSHR(m *l1MSHR) {
	for i := range m.callbacks {
		m.callbacks[i] = nil
	}
	m.callbacks = m.callbacks[:0]
	l.mshrFree = append(l.mshrFree, m)
}

// Outstanding returns the number of in-flight misses.
func (l *L1) Outstanding() int { return len(l.mshrLine) }

// HasLine reports the L1 state of a line (for invariant checks).
func (l *L1) HasLine(line uint64) (cache.State, bool) {
	if e, ok := l.c.Peek(line); ok {
		return e.State, true
	}
	return cache.Invalid, false
}

func (l *L1) send(t MsgType, line uint64, dst int, dirty bool) {
	l.tp.Send(Msg{Type: t, Line: line, Src: l.tile, Dst: dst, Dirty: dirty}, l.Latency)
}

// Access performs a load (write=false) or store (write=true) against the
// line. done fires when the access is architecturally complete (immediately
// on a hit, at fill time on a miss).
func (l *L1) Access(line uint64, write bool, done func()) AccessResult {
	e, held := l.c.Lookup(line)
	if held && l.hit(e, write) {
		done()
		return Hit
	}
	// A miss, or a write to a Shared line that must upgrade through the
	// home.
	if m := l.findMSHR(line); m != nil {
		if !write || m.wantM {
			m.callbacks = append(m.callbacks, done)
			l.Coalesces++
			return Coalesced
		}
		// A write behind a pending GetS: keep it simple, retry later.
		l.Blocks++
		return Blocked
	}
	if len(l.mshrLine) >= l.MaxMSHR {
		l.Blocks++
		return Blocked
	}
	l.miss(line, held)
	m := l.addMSHR(line, write, false)
	m.callbacks = append(m.callbacks, done)
	if write {
		l.send(GetM, line, l.homeFor(line), false)
	} else {
		l.send(GetS, line, l.homeFor(line), false)
	}
	if !held {
		l.maybePrefetch(line + 1)
	}
	return MissIssued
}

// hit applies a demand access to a line the L1 holds: the first demand
// hit on a prefetched line counts the prefetch useful, and a write to an
// Exclusive line upgrades it to Modified silently. It reports whether the
// access completes in the L1; a write to a Shared line does not.
func (l *L1) hit(e *cache.Line[bool], write bool) bool {
	if e.Payload {
		l.PrefetchesUseful++
		e.Payload = false
	}
	switch {
	case !write || e.State == cache.Modified:
	case e.State == cache.Exclusive:
		e.State = cache.Modified
		l.Upgrades++
	default:
		return false
	}
	l.Hits++
	return true
}

// miss counts a demand request to the home. An upgrade drops the Shared
// copy first: the home invalidates the other sharers and replies DataM
// (it may also Inv this L1, harmlessly).
func (l *L1) miss(line uint64, upgrade bool) {
	l.Misses++
	if upgrade {
		l.c.Invalidate(line)
	}
}

// maybePrefetch issues a low-priority GetS for a predicted line when the
// stream prefetcher is on and resources allow. Prefetch MSHRs carry no
// callbacks and never block demand traffic (they leave one MSHR free).
func (l *L1) maybePrefetch(line uint64) {
	if !l.PrefetchNextLine {
		return
	}
	if _, ok := l.c.Peek(line); ok {
		return
	}
	if len(l.mshrLine) >= l.MaxMSHR-1 || l.findMSHR(line) != nil {
		return
	}
	l.PrefetchesIssued++
	l.addMSHR(line, false, true)
	l.send(GetS, line, l.homeFor(line), false)
}

// Handle processes a protocol message addressed to this L1.
func (l *L1) Handle(m Msg) {
	switch m.Type {
	case Data, DataE, DataM:
		l.fill(m)
	case Inv:
		l.send(InvAck, m.Line, m.Src, l.invalidate(m.Line))
	case FwdGetS, FwdGetM:
		if l.findMSHR(m.Line) != nil {
			// With ordered per-pair delivery a forward can only find an
			// open MSHR when our own re-request is still queued at the
			// home (stale ownership from a silently dropped clean line):
			// we hold nothing, so say so.
			l.send(FwdNoData, m.Line, m.Src, false)
			return
		}
		if held, dirty := l.forward(m.Line, m.Type == FwdGetS); held {
			l.send(FwdAckData, m.Line, m.Src, dirty)
			return
		}
		l.send(FwdNoData, m.Line, m.Src, false)
	case WBAck:
		if l.wb[m.Line] > 1 {
			l.wb[m.Line]--
		} else {
			delete(l.wb, m.Line)
		}
	default:
		panic(fmt.Sprintf("coherence: L1 %d got unexpected %v", l.tile, m.Type))
	}
}

// invalidate services an invalidation or a recall of line and reports
// whether the copy given up was dirty. A line still in the write-back
// buffer counts as dirty.
func (l *L1) invalidate(line uint64) (dirty bool) {
	l.Invalidations++
	if old, ok := l.c.Invalidate(line); ok {
		return old.State == cache.Modified
	}
	return l.wb[line] > 0
}

// forward services a forwarded request for line: the L1 keeps a Shared
// copy (FwdGetS, keepS) or gives the line up (FwdGetM). It reports
// whether the L1 held the line, in its cache or its write-back buffer,
// and whether that copy was dirty.
func (l *L1) forward(line uint64, keepS bool) (held, dirty bool) {
	if keepS {
		if e, ok := l.c.Peek(line); ok {
			dirty = e.State == cache.Modified
			e.State = cache.Shared
			return true, dirty
		}
	} else if old, ok := l.c.Invalidate(line); ok {
		return true, old.State == cache.Modified
	}
	held = l.wb[line] > 0
	return held, held
}

// fill installs a response line and completes waiting accesses.
func (l *L1) fill(m Msg) {
	mshr := l.findMSHR(m.Line)
	if mshr == nil {
		panic(fmt.Sprintf("coherence: L1 %d fill without MSHR line %#x", l.tile, m.Line))
	}
	st := cache.Shared
	switch m.Type {
	case DataE:
		st = cache.Exclusive
	case DataM:
		st = cache.Modified
	}
	if mshr.wantM && st != cache.Modified {
		panic(fmt.Sprintf("coherence: L1 %d GetM answered with %v", l.tile, m.Type))
	}
	// A racing Inv/FwdGetM between our GetM send and the DataM response
	// cannot target us (the home serializes per line and we were not a
	// sharer), so a plain insert is safe.
	if v, dirty := l.install(m.Line, st, mshr.prefetch); dirty {
		// The write-back buffer answers racing forwards until WBAck.
		l.wb[v]++
		l.send(PutM, v, l.homeFor(v), true)
	}
	l.removeMSHR(m.Line)
	for _, cb := range mshr.callbacks {
		cb()
	}
	l.putMSHR(mshr)
}

// install inserts line after making room in its set: a clean victim drops
// silently, a Modified one is returned (dirty) for the caller to write
// back.
func (l *L1) install(line uint64, st cache.State, prefetch bool) (victim uint64, dirty bool) {
	if v := l.c.Victim(line); v.State.Valid() {
		victim, dirty = v.Tag, v.State == cache.Modified
		l.c.Invalidate(victim)
	}
	l.c.Insert(line, st, prefetch)
	return victim, dirty
}
