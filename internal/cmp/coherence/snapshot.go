package coherence

// Checkpoint support for the coherence controllers. Both controllers are
// serialized only at protocol-quiescent points (no outstanding MSHRs,
// write-backs or home transactions) — the state captured is exactly what
// a cache warmup leaves behind: cache contents, directory entries and the
// counters the warmup does not reset. Mid-transaction state holds
// completion closures (MSHR callbacks) that cannot be serialized, so a
// snapshot of a busy controller is refused rather than silently lossy.

import (
	"fmt"

	"heteronoc/internal/ckpt"
)

// EncodeState writes the L1's cache contents and sticky statistics.
// The controller must be quiescent (no MSHRs, no in-flight write-backs).
func (l *L1) EncodeState(w *ckpt.Writer) error {
	if len(l.mshrLine) != 0 || len(l.wb) != 0 {
		return fmt.Errorf("coherence: L1 %d not quiescent (%d MSHRs, %d write-backs)", l.tile, len(l.mshrLine), len(l.wb))
	}
	l.c.EncodeState(w, encodePrefetch)
	w.I64(l.PrefetchesIssued)
	w.I64(l.PrefetchesUseful)
	return nil
}

// DecodeState loads state written by EncodeState.
func (l *L1) DecodeState(r *ckpt.Reader) error {
	if err := l.c.DecodeState(r, decodePrefetch); err != nil {
		return fmt.Errorf("coherence: L1 %d: %w", l.tile, err)
	}
	l.PrefetchesIssued = r.I64()
	l.PrefetchesUseful = r.I64()
	return r.Err()
}

// An L1 line's prefetch flag is written as a has-payload marker followed,
// when set, by a constant true byte.
func encodePrefetch(w *ckpt.Writer, prefetched bool) {
	w.Bool(prefetched)
	if prefetched {
		w.Bool(true)
	}
}

func decodePrefetch(r *ckpt.Reader) (bool, error) {
	if !r.Bool() {
		return false, r.Err()
	}
	if !r.Bool() && r.Err() == nil {
		return false, fmt.Errorf("malformed L1 payload marker")
	}
	return true, r.Err()
}

// EncodeState writes the home bank's L2 contents (directory entries
// included) and sticky statistics. The bank must be quiescent.
func (h *Home) EncodeState(w *ckpt.Writer) error {
	if len(h.busy) != 0 || len(h.waiting) != 0 {
		return fmt.Errorf("coherence: home %d not quiescent (%d busy, %d waiting)", h.tile, len(h.busy), len(h.waiting))
	}
	h.l2.EncodeState(w, encodeDir)
	return nil
}

// DecodeState loads state written by EncodeState into the home of a
// tiles-tile system. A directory entry naming a tile outside the system,
// as owner or sharer, is rejected.
func (h *Home) DecodeState(r *ckpt.Reader, tiles int) error {
	dec := func(r *ckpt.Reader) (DirEntry, error) { return decodeDir(r, tiles) }
	if err := h.l2.DecodeState(r, dec); err != nil {
		return fmt.Errorf("coherence: home %d: %w", h.tile, err)
	}
	return r.Err()
}

// A directory entry is written as a has-payload marker (always true: every
// L2 line carries one), then owner, sharers and the dirty bit.
func encodeDir(w *ckpt.Writer, d DirEntry) {
	w.Bool(true)
	w.Int(int(d.Owner))
	w.U64(d.Sharers)
	w.Bool(d.Dirty)
}

func decodeDir(r *ckpt.Reader, tiles int) (DirEntry, error) {
	if !r.Bool() && r.Err() == nil {
		return DirEntry{}, fmt.Errorf("L2 line without a directory entry")
	}
	owner, sharers, dirty := r.I64(), r.U64(), r.Bool()
	if err := r.Err(); err != nil {
		return DirEntry{}, err
	}
	// Range-check before narrowing, so an out-of-range owner cannot wrap
	// into a valid tile.
	if owner < -1 || owner >= int64(tiles) {
		return DirEntry{}, fmt.Errorf("directory owner %d outside [-1, %d)", owner, tiles)
	}
	if tiles < 64 && sharers>>uint(tiles) != 0 {
		return DirEntry{}, fmt.Errorf("directory sharers %#x name tiles at or above %d", sharers, tiles)
	}
	return DirEntry{Sharers: sharers, Owner: int16(owner), Dirty: dirty}, nil
}

// Quiescent reports whether the L1 has no in-flight transactions.
func (l *L1) Quiescent() bool { return len(l.mshrLine) == 0 && len(l.wb) == 0 }

// Quiescent reports whether the home bank has no in-flight transactions.
func (h *Home) Quiescent() bool { return len(h.busy) == 0 && len(h.waiting) == 0 }
