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
// independent of warmup length; readers without state support fall back
// to replaying the recorded entry count through Next(), which the
// deterministic readers reproduce exactly. Either way the restored
// system is bit-identical to one that ran Warmup itself — the figure
// pipeline relies on this to share one warmup across every layout
// variant of a benchmark.

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
	// record (26x the largest figure scale). Restore may replay that many
	// entries per reader, so the bound keeps a forged count from turning
	// into an unbounded replay.
	maxWarmEntries = 1 << 20
)

// WarmSnapshot serializes the post-warmup state of the system. It fails
// if the system has started timing simulation or any controller is
// mid-transaction.
func (s *System) WarmSnapshot() ([]byte, error) {
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
	// One position blob per reader. Empty means "no state support, replay
	// on restore", so mixed reader sets degrade per reader, not per
	// checkpoint.
	for _, tile := range s.Tiles {
		if st, ok := s.cfg.Traces[tile.ID].(trace.Stateful); ok {
			w.Bytes(st.SaveState())
		} else {
			w.Bytes(nil)
		}
	}
	return w.Finish(), nil
}

// RestoreWarmSnapshot loads a WarmSnapshot into a freshly built System
// (same tile count, line size and cache geometry; the layout and memory
// placement may differ — warmup state does not depend on them). The
// system's trace readers are advanced by the warmup's consumption so the
// measured phase reads the exact entries it would have after a direct
// Warmup call. Equivalent to Warmup(entriesPerCore), bit for bit.
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
	if s.now != 0 || s.warmedEntries != 0 {
		return fmt.Errorf("cmp: RestoreWarmSnapshot target must be freshly constructed")
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
	// Land the trace readers on the post-warmup position: O(1) state
	// restore when the checkpoint carries a blob and the reader supports
	// it, otherwise replay the recorded entry count through Next() (the
	// readers are deterministic, so N reads reproduce the position
	// exactly; interleaving across cores does not matter because readers
	// are per-core).
	for _, tile := range s.Tiles {
		tr := s.cfg.Traces[tile.ID]
		if len(readerState[tile.ID]) > 0 {
			if st, ok := tr.(trace.Stateful); ok {
				if err := st.RestoreState(readerState[tile.ID]); err != nil {
					return fmt.Errorf("cmp: reader %d: %w", tile.ID, err)
				}
				continue
			}
		}
		for k := 0; k < entries; k++ {
			tr.Next()
		}
	}
	s.warmedEntries = entries
	return nil
}
