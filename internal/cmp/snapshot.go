package cmp

// Warm-state checkpointing (NOCCKPT01 kind "cmp-warm"). A CMP system is
// serialized at the one boundary where its complete architectural state
// is closed over plain data: immediately after Warmup, before the first
// timing Step. At that point every protocol transaction has settled
// (warmup delivery is synchronous), no message is in flight, the network
// and memory controllers are untouched, and the cores have not issued —
// so the whole system state is the cache/directory contents, the LRU
// bookkeeping, the prefetch counters warmup does not reset, and the trace
// positions. Mid-run snapshots are refused: in-flight MSHRs and home
// transactions hold completion closures that cannot be serialized.
//
// Restoring into a freshly built System loads the cache state and lands
// the trace readers on their post-warmup position. Checkpoints carry each
// reader's own O(1) position snapshot (trace.Stateful — RNG register for
// generators, entry index for chunked file readers), so restore cost is
// independent of warmup length. A reader without position state can be
// neither snapshotted nor restored: WarmSnapshot refuses it, and restore
// refuses it before writing anything, so the caller can still warm that
// system directly. The restored system is bit-identical to one that ran
// Warmup itself — the figure pipeline relies on this to share one warmup
// across every layout variant of a benchmark.

import (
	"fmt"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/trace"
)

const (
	// KindWarmSystem labels a post-warmup cmp.System checkpoint.
	KindWarmSystem = "cmp-warm"

	// warmSnapshotVersion is the only body layout restore accepts;
	// warm.System falls back to a direct warmup for any other.
	warmSnapshotVersion = 2

	// maxWarmEntries bounds the per-core warmup length a checkpoint may
	// record (26x the largest figure scale). The count is bookkeeping —
	// restore positions each reader from its own state — and restore
	// refuses a count outside [0, maxWarmEntries].
	maxWarmEntries = 1 << 20
)

// WarmSnapshot serializes the post-warmup state of the system. It fails
// if the system has started timing simulation, any controller is
// mid-transaction or any trace reader has no position state.
func (s *System) WarmSnapshot() ([]byte, error) {
	if s.warmErr != nil {
		return nil, s.unusable()
	}
	if s.now != 0 {
		return nil, fmt.Errorf("cmp: WarmSnapshot after %d timing cycles; only post-warmup snapshots are supported", s.now)
	}
	if s.warmedEntries > maxWarmEntries {
		return nil, fmt.Errorf("cmp: WarmSnapshot of a %d-entry warmup; checkpoints hold at most %d", s.warmedEntries, maxWarmEntries)
	}
	if len(s.delayQ) != 0 || len(s.seqOut) != 0 || len(s.seqIn) != 0 || len(s.parked) != 0 {
		return nil, fmt.Errorf("cmp: WarmSnapshot with in-flight messages")
	}
	for _, tile := range s.Tiles {
		if !tile.L1.Quiescent() || !tile.Home.Quiescent() {
			return nil, fmt.Errorf("cmp: WarmSnapshot with tile %d mid-transaction", tile.ID)
		}
	}
	w := ckpt.NewWriter(ckpt.Header{
		Kind:    KindWarmSystem,
		Version: warmSnapshotVersion,
	})
	w.Int(len(s.Tiles))
	w.Int(s.cfg.LineBytes)
	w.Bool(s.cfg.Prefetch)
	w.Int(s.warmedEntries)
	for _, tile := range s.Tiles {
		if err := tile.L1.EncodeState(w); err != nil {
			return nil, err
		}
		if err := tile.Home.EncodeState(w); err != nil {
			return nil, err
		}
	}
	for _, tile := range s.Tiles {
		var state []byte
		if st, ok := s.cfg.Traces[tile.ID].(trace.Stateful); ok {
			state = st.SaveState()
		}
		if state == nil {
			return nil, fmt.Errorf("cmp: WarmSnapshot: reader %d has no position state", tile.ID)
		}
		w.Bytes(state)
	}
	return w.Finish(), nil
}

// RestoreWarmSnapshot loads a WarmSnapshot into a freshly built System
// (same tile count, line size and cache geometry; the layout and memory
// placement may differ — warmup state does not depend on them) and
// repositions every trace reader from its saved state, so the measured
// phase reads the exact entries it would have after a direct Warmup.
// Equivalent to Warmup(entriesPerCore), bit for bit.
//
// A checkpoint or target refused before the first cache write (wrong
// kind, version or shape, or a reader without position state) leaves the
// system as built. A failure after it leaves the system unusable, as a
// warmup stopped part way does.
func (s *System) RestoreWarmSnapshot(data []byte) error {
	r, err := ckpt.NewReader(data)
	if err != nil {
		return err
	}
	h := r.Header()
	if h.Kind != KindWarmSystem {
		return fmt.Errorf("cmp: checkpoint kind %q, want %q", h.Kind, KindWarmSystem)
	}
	if h.Version != warmSnapshotVersion {
		return fmt.Errorf("cmp: checkpoint version %d, want %d", h.Version, warmSnapshotVersion)
	}
	if s.now != 0 || s.warmedEntries != 0 || s.warmErr != nil {
		return fmt.Errorf("cmp: RestoreWarmSnapshot target must be freshly constructed")
	}
	for _, tile := range s.Tiles {
		if _, ok := s.cfg.Traces[tile.ID].(trace.Stateful); !ok {
			return fmt.Errorf("cmp: reader %d has no position state to restore", tile.ID)
		}
	}
	if n := r.Int(); n != len(s.Tiles) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("cmp: checkpoint has %d tiles, target has %d", n, len(s.Tiles))
	}
	if lb := r.Int(); lb != s.cfg.LineBytes {
		return fmt.Errorf("cmp: checkpoint line size %d, target %d", lb, s.cfg.LineBytes)
	}
	if pf := r.Bool(); pf != s.cfg.Prefetch {
		return fmt.Errorf("cmp: checkpoint prefetch=%t, target %t", pf, s.cfg.Prefetch)
	}
	entries := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if entries < 0 || entries > maxWarmEntries {
		return fmt.Errorf("cmp: warmup entry count %d outside [0, %d]", entries, maxWarmEntries)
	}
	if err := s.restoreWarm(r); err != nil {
		s.warmErr = err
		return err
	}
	s.warmedEntries = entries
	return nil
}

// restoreWarm decodes the cache and directory state into the tiles, then
// lands every reader on its saved position.
func (s *System) restoreWarm(r *ckpt.Reader) error {
	for _, tile := range s.Tiles {
		if err := tile.L1.DecodeState(r); err != nil {
			return err
		}
		if err := tile.Home.DecodeState(r, len(s.Tiles)); err != nil {
			return err
		}
	}
	readerState := make([][]byte, len(s.Tiles))
	for i := range s.Tiles {
		readerState[i] = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return err
	}
	for _, tile := range s.Tiles {
		st := s.cfg.Traces[tile.ID].(trace.Stateful)
		if err := st.RestoreState(readerState[tile.ID]); err != nil {
			return fmt.Errorf("cmp: reader %d: %w", tile.ID, err)
		}
	}
	return nil
}
