package coherence

import (
	"math/bits"

	"heteronoc/internal/cmp/cache"
)

// Warm applies one access of tile's core to line (a store when write is
// set) as a whole MESI transaction over an instantaneous transport: the
// L1 lookup, the home lookup, the L2 victim's drop or recall, the
// directory grant with its forward or invalidations, the L1 fill and the
// write-back of the L1's dirty victim. It leaves every cache, directory
// entry, LRU stamp and counter exactly as l1s[tile].Access followed by
// delivering every resulting message in FIFO order would, but it sends no
// message and opens no MSHR, home transaction or write-back entry.
//
// The controllers must be quiescent and must not prefetch: a prefetch's
// GetS interleaves with the demand's messages, which one transaction at a
// time cannot reproduce.
func Warm(l1s []*L1, homes []*Home, tile int, line uint64, write bool) {
	l := l1s[tile]
	e, held := l.c.Lookup(line)
	if held && l.hit(e, write) {
		return
	}
	l.miss(line, held)
	st := homes[l.homeFor(line)].warm(l1s, tile, line, write)
	// The L1's victim is picked only now: a recall may have freed a way
	// in its set.
	if v, dirty := l.install(line, st, false); dirty {
		homes[l.homeFor(v)].putM(v, tile)
	}
}

// warm serves src's request for line to completion and returns the state
// src's fill takes. It makes the cache calls the handlers make, in the
// order the FIFO delivers their messages: on an L2 miss a Lookup, the
// victim's drop (after recalling every copy), the Insert, and the
// Lookup that serves the request from the installed line.
func (h *Home) warm(l1s []*L1, src int, line uint64, write bool) cache.State {
	e, hit := h.lookup(line)
	if !hit {
		if v := h.l2.Victim(line); v.State.Valid() {
			victim, d := v.Tag, v.Payload
			dirty := d.Dirty
			if d.hasCopies() {
				h.Recalls++
				if d.Owner >= 0 && l1s[d.Owner].invalidate(victim) {
					dirty = true
				}
				for s := d.Sharers; s != 0; s &= s - 1 {
					if l1s[bits.TrailingZeros64(s)].invalidate(victim) {
						dirty = true
					}
				}
			}
			h.drop(victim, dirty)
		}
		h.MemReads++
		h.insert(line)
		e, _ = h.lookup(line)
	}
	d := &e.Payload
	switch g := decide(d, src, write); g {
	case grantS:
		return cache.Shared
	case grantE:
		return cache.Exclusive
	case fwdS, fwdM:
		held, dirty := l1s[d.Owner].forward(line, g == fwdS)
		forwarded(d, src, write, held, dirty)
		if g == fwdS {
			return cache.Shared
		}
	case invSharers:
		for others := d.Sharers &^ (1 << uint(src)); others != 0; others &= others - 1 {
			if l1s[bits.TrailingZeros64(others)].invalidate(line) {
				d.Dirty = true
			}
		}
		setM(d, src)
	}
	return cache.Modified
}
