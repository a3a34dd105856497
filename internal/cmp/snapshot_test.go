package cmp

import (
	"bytes"
	"strings"
	"testing"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/core"
)

// runFingerprint summarizes the observable outcome of a measured run.
func runFingerprint(t *testing.T, s *System, cycles int64) []uint64 {
	t.Helper()
	if err := s.Run(cycles); err != nil {
		t.Fatal(err)
	}
	var insts int64
	for _, tile := range s.Tiles {
		insts += tile.Core.Insts
	}
	ns := s.NetStats()
	return []uint64{
		uint64(insts), ns.Fingerprint(),
		uint64(ns.PacketsInjected), uint64(ns.PacketsReceived),
	}
}

// TestWarmSnapshotEquivalentToDirectWarmup is the warmup-sharing
// invariant: restore(WarmSnapshot(warmed)) then Run must be bit-identical
// to Warmup then Run.
func TestWarmSnapshotEquivalentToDirectWarmup(t *testing.T) {
	const entries, cycles = 400, 2000
	l := core.NewBaseline(8, 8)

	direct := newSystem(t, l, "SPECjbb")
	mustWarm(t, direct, entries)
	snap, err := direct.WarmSnapshot()
	if err != nil {
		t.Fatalf("WarmSnapshot: %v", err)
	}
	want := runFingerprint(t, direct, cycles)

	restored := newSystem(t, l, "SPECjbb")
	if err := restored.RestoreWarmSnapshot(snap); err != nil {
		t.Fatalf("RestoreWarmSnapshot: %v", err)
	}

	// The restored system re-serializes to the identical bytes: the warm
	// state survived the round trip exactly.
	snap2, err := restored.WarmSnapshot()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Error("restored warm state re-serializes differently")
	}

	got := runFingerprint(t, restored, cycles)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored run diverged: metric %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestWarmSnapshotSharedAcrossLayouts pins the property the figure
// pipeline exploits: warm state is independent of the layout and memory
// placement, so one benchmark's warm checkpoint taken on the baseline
// layout restores into a hetero layout and reproduces exactly the run
// that layout's own warmup would have produced.
func TestWarmSnapshotSharedAcrossLayouts(t *testing.T) {
	const entries, cycles = 400, 2000
	hetero := core.NewLayout(core.PlacementDiagonal, 8, 8, true)

	// Warm on the baseline layout...
	base := newSystem(t, core.NewBaseline(8, 8), "TPC-C")
	mustWarm(t, base, entries)
	snap, err := base.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// ...and on the target layout directly.
	direct := newSystem(t, hetero, "TPC-C")
	mustWarm(t, direct, entries)
	directSnap, err := direct.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, directSnap) {
		t.Fatal("warm state differs across layouts; sharing is unsound")
	}
	want := runFingerprint(t, direct, cycles)

	restored := newSystem(t, hetero, "TPC-C")
	if err := restored.RestoreWarmSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	got := runFingerprint(t, restored, cycles)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cross-layout restore diverged: metric %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestWarmSnapshotRefusesMidRunState pins the quiescence restriction.
func TestWarmSnapshotRefusesMidRunState(t *testing.T) {
	s := newSystem(t, core.NewBaseline(8, 8), "SAP")
	mustWarm(t, s, 50)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WarmSnapshot(); err == nil {
		t.Fatal("WarmSnapshot accepted a mid-run system")
	}

	warmed := newSystem(t, core.NewBaseline(8, 8), "SAP")
	mustWarm(t, warmed, 50)
	snap, err := warmed.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restore refuses an already-warmed target (trace readers would skew).
	if err := warmed.RestoreWarmSnapshot(snap); err == nil {
		t.Fatal("RestoreWarmSnapshot accepted an already-warmed target")
	}

	// Restore refuses a smaller system.
	small := newSystem(t, core.NewBaseline(4, 4), "SAP")
	if err := small.RestoreWarmSnapshot(snap); err == nil {
		t.Fatal("RestoreWarmSnapshot accepted a 16-tile target for a 64-tile checkpoint")
	}

	// Corruption is caught.
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 1
	fresh := newSystem(t, core.NewBaseline(8, 8), "SAP")
	if err := fresh.RestoreWarmSnapshot(bad); err == nil {
		t.Fatal("RestoreWarmSnapshot accepted a corrupted checkpoint")
	}
}

// TestWarmSnapshotBoundsWarmupLength pins the cap on the recorded warmup
// length: restore may replay that many entries per reader, so a forged
// count must be refused rather than replayed, and WarmSnapshot must not
// write a checkpoint restore would refuse.
func TestWarmSnapshotBoundsWarmupLength(t *testing.T) {
	s := fuzzSystem(t, false)
	mustWarm(t, s, 10)
	s.warmedEntries = maxWarmEntries + 1
	if _, err := s.WarmSnapshot(); err == nil {
		t.Error("WarmSnapshot recorded a warmup longer than restore accepts")
	}

	w := ckpt.NewWriter(ckpt.Header{Kind: KindWarmSystem, Version: warmSnapshotVersion})
	w.Int(len(s.Tiles))
	w.Int(s.LineBytes())
	w.Bool(false) // prefetch
	w.Int(maxWarmEntries + 1)
	err := fuzzSystem(t, false).RestoreWarmSnapshot(w.Finish())
	if err == nil || !strings.Contains(err.Error(), "warmup entry count") {
		t.Fatalf("restore of a %d-entry warmup: err %v, want the entry count refused", maxWarmEntries+1, err)
	}
}

// TestWarmRestoreAllocsIndependentOfFill pins the allocation profile of a
// warm restore: cache lines and their directory entries load in place, so
// the allocation count is the same for a nearly empty hierarchy and a
// well-filled one.
func TestWarmRestoreAllocsIndependentOfFill(t *testing.T) {
	l := core.NewBaseline(4, 4)
	restoreAllocs := func(entries int) (allocs float64, l2Lines int) {
		src := newSystem(t, l, "SPECjbb")
		mustWarm(t, src, entries)
		snap, err := src.WarmSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range src.Tiles {
			l2Lines += tile.Home.L2().Occupancy()
		}
		// AllocsPerRun calls f once more than runs, and every restore needs
		// a freshly built target, so build them all up front.
		const runs = 3
		targets := make([]*System, runs+1)
		for i := range targets {
			targets[i] = newSystem(t, l, "SPECjbb")
		}
		next := 0
		allocs = testing.AllocsPerRun(runs, func() {
			if err := targets[next].RestoreWarmSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			next++
		})
		return allocs, l2Lines
	}
	lowAllocs, lowLines := restoreAllocs(20)
	highAllocs, highLines := restoreAllocs(2000)
	t.Logf("%d L2 lines: %.0f allocations; %d lines: %.0f", lowLines, lowAllocs, highLines, highAllocs)
	if highLines < 10*lowLines {
		t.Fatalf("fill levels too close: %d vs %d valid L2 lines", lowLines, highLines)
	}
	if highAllocs > lowAllocs {
		t.Errorf("restoring %d L2 lines took %.0f allocations, %d lines took %.0f; want no growth with fill",
			highLines, highAllocs, lowLines, lowAllocs)
	}
}
