// Package warm shares CMP cache-warmup state across runs via checkpoints.
//
// Every default-trace CMP run warms its caches from the same deterministic
// per-core trace generators, and the warm state is independent of the
// layout, topology and memory-controller placement (warmup touches only
// L1s, home directories and trace positions — see cmp.WarmSnapshot). So
// every run of one benchmark at one mesh size shares a single
// (bench, tiles, entries, line size, prefetch) warmup: the first arrival
// warms a template system, snapshots it, and every run — first included —
// restores the checkpoint. The checkpoint rides the runcache, so with a
// disk tier configured, a later process skips warmup replay entirely.
//
// This began as experiments-internal machinery (PR 5); it lives in its own
// package so the design-space search can give each CMP-mode candidate
// evaluation an O(1) warm restore — one network simulation per candidate
// instead of a full warmup replay — without importing experiments.
//
// Restored and directly-warmed systems are bit-identical (pinned by the
// cmp snapshot tests and TestFigureOutputIdenticalWithWarmupSharing), so
// run output cannot depend on whether the run cache, and with it sharing,
// is enabled (-nocache warms every run directly).
package warm

import (
	"context"
	"fmt"
	"sync/atomic"

	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/runcache"
	"heteronoc/internal/trace"
)

// restores / fallbacks let tests assert the sharing path actually ran
// rather than silently falling back.
var restores, fallbacks atomic.Int64

// Stats returns how many runs restored a shared warm checkpoint and how
// many fell back to a direct warmup.
func Stats() (restored, fellBack int64) {
	return restores.Load(), fallbacks.Load()
}

// ResetStats zeroes the restore/fallback counters (tests).
func ResetStats() {
	restores.Store(0)
	fallbacks.Store(0)
}

// Key addresses a shared warm checkpoint. Deliberately narrow: no layout,
// no MC placement, no scale name — warm state depends on none of them,
// and the narrow key is what collapses the per-layout warmups of a figure
// sweep (or a search generation) into one.
func Key(bench string, n, entries, lineBytes int, prefetch bool) string {
	return fmt.Sprintf("warm|%s|n=%d|e=%d|lb=%d|pf=%t", bench, n, entries, lineBytes, prefetch)
}

// System brings the freshly built s to its post-warmup state, via a shared
// checkpoint when the run cache is enabled. Equivalent to
// s.Warmup(ctx, entries) bit for bit. When ctx ends first it returns
// ctx's error, and s must then be discarded (see cmp.System.Warmup).
func System(ctx context.Context, s *cmp.System, l core.Layout, bench string, entries int) error {
	if !runcache.Enabled() || entries <= 0 {
		return s.Warmup(ctx, entries)
	}
	n := l.Mesh.NumTerminals()
	key := Key(bench, n, entries, s.LineBytes(), s.PrefetchEnabled())
	snap, err := runcache.ForCtx(ctx, key, func(ctx context.Context) ([]byte, error) {
		t, err := template(l, bench, s.PrefetchEnabled())
		if err != nil {
			return nil, err
		}
		if err := t.Warmup(ctx, entries); err != nil {
			return nil, err
		}
		return t.WarmSnapshot()
	})
	if err == nil && len(snap) > 0 {
		if rerr := s.RestoreWarmSnapshot(snap); rerr == nil {
			restores.Add(1)
			return nil
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// A restore refused before its first write (no checkpoint, a version
	// or shape mismatch, a reader without position state) left s as
	// built, so a direct warmup reaches the identical state. A restore
	// that failed later left s unusable, and Warmup returns that error.
	if err := s.Warmup(ctx, entries); err != nil {
		return err
	}
	fallbacks.Add(1)
	return nil
}

// template builds a minimal system to generate a warm checkpoint: the
// baseline layout of the same size with the bench's standard trace
// generators. Its warm state equals that of any same-sized layout
// (TestWarmSnapshotSharedAcrossLayouts).
func template(l core.Layout, bench string, prefetch bool) (*cmp.System, error) {
	trs, err := trace.WorkloadTraces(bench, l.Mesh.NumTerminals(), 128)
	if err != nil {
		return nil, err
	}
	w, h := l.Mesh.Dims()
	return cmp.New(cmp.Config{Layout: core.NewBaseline(w, h), Traces: trs, Prefetch: prefetch})
}
