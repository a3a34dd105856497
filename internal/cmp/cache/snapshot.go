package cache

// Checkpoint support. A cache serializes its complete replacement state —
// every valid line with tag, MESI state and LRU stamp, plus the global
// LRU tick and the cache-level counters — so a restored cache makes
// exactly the same hit/miss/victim decisions as the original. Each line's
// payload is written and read by codec functions of the controller that
// owns the cache.

import (
	"fmt"

	"heteronoc/internal/ckpt"
)

// EncodeState writes the cache's dynamic state; enc writes each valid
// line's payload after its tag, state and LRU stamp.
func (c *Cache[P]) EncodeState(w *ckpt.Writer, enc func(*ckpt.Writer, P)) {
	w.Int(len(c.lines))
	w.I64(c.tick)
	w.I64(c.Hits)
	w.I64(c.Misses)
	w.I64(c.Evictions)
	w.Int(c.Occupancy())
	for i := range c.lines {
		ln := &c.lines[i]
		if !ln.State.Valid() {
			continue
		}
		w.Int(i)
		w.U64(ln.Tag)
		w.U64(uint64(ln.State))
		w.I64(ln.lru)
		enc(w, ln.Payload)
	}
}

// DecodeState loads state written by EncodeState into c, which must have
// the same geometry; dec reads one line's payload. All lines are
// invalidated first. Every line is checked as it loads — indexes strictly
// ascending, state S, E or M, the tag mapping to the line's own set and
// held by no other way of it — so a decoded cache never holds two copies
// of one line or a line its lookups cannot find.
func (c *Cache[P]) DecodeState(r *ckpt.Reader, dec func(*ckpt.Reader) (P, error)) error {
	if n := r.Int(); n != len(c.lines) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("cache: checkpoint has %d lines, target has %d", n, len(c.lines))
	}
	c.tick = r.I64()
	c.Hits = r.I64()
	c.Misses = r.I64()
	c.Evictions = r.I64()
	clear(c.lines)
	valid := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if valid < 0 || valid > len(c.lines) {
		return fmt.Errorf("cache: %d valid lines in a %d-line cache", valid, len(c.lines))
	}
	prev := -1
	for k := 0; k < valid; k++ {
		i, tag, st, lru := r.Int(), r.U64(), r.U64(), r.I64()
		if r.Err() != nil {
			return r.Err()
		}
		switch {
		case i <= prev || i >= len(c.lines):
			return fmt.Errorf("cache: line index %d after %d, want ascending below %d", i, prev, len(c.lines))
		case st < uint64(Shared) || st > uint64(Modified):
			return fmt.Errorf("cache: line %d in state %d, want S, E or M", i, st)
		case c.base(tag) != uint64(i)-uint64(i)%c.ways:
			return fmt.Errorf("cache: line %d holds tag %#x, which maps to another set", i, tag)
		}
		if _, dup := c.find(tag); dup {
			return fmt.Errorf("cache: line %d repeats tag %#x within its set", i, tag)
		}
		p, err := dec(r)
		if err != nil {
			return fmt.Errorf("cache: decoding payload of line %d: %w", i, err)
		}
		c.lines[i] = Line[P]{Tag: tag, State: State(st), Payload: p, lru: lru}
		prev = i
	}
	return r.Err()
}
