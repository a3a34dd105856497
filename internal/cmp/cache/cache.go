// Package cache implements the set-associative write-back caches of the
// CMP system model: per-core private L1s and the shared banked L2, with
// true-LRU replacement and MSHR-style miss tracking support hooks. A cache
// is generic over the per-line payload its controller keeps (the L2 banks'
// directory entries, the L1s' prefetch flag), stored inline so a line
// array of pointer-free payloads holds no pointers at all.
package cache

import "fmt"

// State is a MESI line state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Valid reports whether the state holds data.
func (s State) Valid() bool { return s != Invalid }

// Line is one cache line. Payload carries controller-specific metadata
// by value (the L2 banks keep directory entries here).
type Line[P any] struct {
	Tag     uint64
	State   State
	Payload P

	lru int64
}

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
	// IndexShiftBits drops low line-address bits before set indexing.
	// Banked caches whose bank is selected by the low bits (the L2: home
	// tile = line mod 64) must skip those bits or only 1/64th of their
	// sets would ever be used.
	IndexShiftBits uint
}

// Cache is a set-associative array indexed by line address (byte address
// >> line shift happens internally). The line array is one contiguous
// set-major slice — the set count is a power of two, so indexing is a
// shift-and-mask (no divide) and a whole set sits in adjacent hardware
// cache lines, which is what keeps the lookup scan cheap on the warmup
// and coherence hot paths.
type Cache[P any] struct {
	cfg       Config
	sets      int
	setMask   uint64
	ways      uint64
	lineShift uint
	lines     []Line[P] // sets × ways, set-major
	tick      int64

	// Statistics.
	Hits, Misses, Evictions int64
}

// New builds a cache. Sizes must divide evenly.
func New[P any](cfg Config) *Cache[P] {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	linesTotal := cfg.SizeBytes / cfg.LineBytes
	if linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", linesTotal, cfg.Ways))
	}
	sets := linesTotal / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", sets))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	if 1<<shift != cfg.LineBytes {
		panic("cache: line size must be a power of two")
	}
	return &Cache[P]{
		cfg: cfg, sets: sets, setMask: uint64(sets - 1), ways: uint64(cfg.Ways),
		lineShift: shift,
		lines:     make([]Line[P], sets*cfg.Ways),
	}
}

// LineAddr converts a byte address to a line address.
func (c *Cache[P]) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// LineBytes returns the configured line size.
func (c *Cache[P]) LineBytes() int { return c.cfg.LineBytes }

// Sets returns the number of sets.
func (c *Cache[P]) Sets() int { return c.sets }

// base returns the index of lineAddr's set in the flat arrays.
func (c *Cache[P]) base(lineAddr uint64) uint64 {
	return ((lineAddr >> c.cfg.IndexShiftBits) & c.setMask) * c.ways
}

// find returns the index of the valid line holding lineAddr, or false.
func (c *Cache[P]) find(lineAddr uint64) (uint64, bool) {
	base := c.base(lineAddr)
	set := c.lines[base : base+c.ways]
	for i := range set {
		// Tag first: at most one way matches, so the state check (which
		// guards invalid ways, whose tags are zeroed) almost never runs.
		if set[i].Tag == lineAddr && set[i].State.Valid() {
			return base + uint64(i), true
		}
	}
	return 0, false
}

// Lookup returns the line holding lineAddr, updating LRU on hit. The
// returned pointer stays valid until the line is evicted.
func (c *Cache[P]) Lookup(lineAddr uint64) (*Line[P], bool) {
	if i, ok := c.find(lineAddr); ok {
		c.tick++
		c.lines[i].lru = c.tick
		c.Hits++
		return &c.lines[i], true
	}
	c.Misses++
	return nil, false
}

// Peek is Lookup without LRU update or hit/miss accounting.
func (c *Cache[P]) Peek(lineAddr uint64) (*Line[P], bool) {
	if i, ok := c.find(lineAddr); ok {
		return &c.lines[i], true
	}
	return nil, false
}

// victimIdx returns the way Insert would replace in lineAddr's set: the
// first invalid way when one exists, otherwise the LRU way (earliest way
// wins ties, matching the historical scan order).
func (c *Cache[P]) victimIdx(lineAddr uint64) uint64 {
	base := c.base(lineAddr)
	set := c.lines[base : base+c.ways]
	vi := 0
	for i := range set {
		if !set[i].State.Valid() {
			return base + uint64(i)
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	return base + uint64(vi)
}

// Victim returns the line that Insert would replace: an invalid way when
// one exists, otherwise the LRU way. It does not modify the cache.
func (c *Cache[P]) Victim(lineAddr uint64) *Line[P] {
	return &c.lines[c.victimIdx(lineAddr)]
}

// VictimWhere returns the replacement candidate for lineAddr among ways
// whose tag passes the filter (invalid ways always pass): the LRU eligible
// way, or nil when every way is filtered out. Controllers use it to avoid
// evicting lines with in-flight transactions.
func (c *Cache[P]) VictimWhere(lineAddr uint64, ok func(tag uint64) bool) *Line[P] {
	base := c.base(lineAddr)
	set := c.lines[base : base+c.ways]
	var victim *Line[P]
	for i := range set {
		if !set[i].State.Valid() {
			return &set[i]
		}
		if !ok(set[i].Tag) {
			continue
		}
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// Insert places lineAddr into the cache in the given state, returning the
// evicted line (by value) when a valid line had to be replaced. The caller
// is responsible for writing back / recalling the victim first — use
// Victim to inspect it before inserting.
func (c *Cache[P]) Insert(lineAddr uint64, st State, payload P) (evicted Line[P], hadVictim bool) {
	if _, ok := c.Peek(lineAddr); ok {
		panic(fmt.Sprintf("cache: double insert of line %#x", lineAddr))
	}
	i := c.victimIdx(lineAddr)
	if c.lines[i].State.Valid() {
		evicted, hadVictim = c.lines[i], true
		c.Evictions++
	}
	c.tick++
	c.lines[i] = Line[P]{Tag: lineAddr, State: st, Payload: payload, lru: c.tick}
	return evicted, hadVictim
}

// Invalidate drops a line, returning its prior contents.
func (c *Cache[P]) Invalidate(lineAddr uint64) (Line[P], bool) {
	if i, ok := c.find(lineAddr); ok {
		old := c.lines[i]
		c.lines[i] = Line[P]{}
		return old, true
	}
	return Line[P]{}, false
}

// Occupancy returns the number of valid lines.
func (c *Cache[P]) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State.Valid() {
			n++
		}
	}
	return n
}

// ForEach visits every valid line.
func (c *Cache[P]) ForEach(fn func(*Line[P])) {
	for i := range c.lines {
		if c.lines[i].State.Valid() {
			fn(&c.lines[i])
		}
	}
}
