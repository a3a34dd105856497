package experiments

import (
	"context"
	"testing"

	"heteronoc/internal/runcache"
	"heteronoc/internal/warm"
)

// resetWarmShareStats zeroes the restore/fallback counters for one test.
func resetWarmShareStats() {
	warm.ResetStats()
}

// TestFigureOutputIdenticalWithWarmupSharing is the warmup-sharing
// transparency gate: a CMP figure renders byte-identical markdown whether
// its runs restore a shared warm checkpoint or, with the run cache
// disabled (-nocache), warm their own caches directly — and the sharing
// path must actually engage, not silently fall back.
func TestFigureOutputIdenticalWithWarmupSharing(t *testing.T) {
	sc := cacheTestScale("warmshare-fig")
	runcache.Reset()
	resetWarmShareStats()
	defer func() {
		runcache.SetEnabled(true)
		runcache.Reset()
	}()

	shared, err := Fig10(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	restored, fellBack := WarmupSharingStats()
	if restored == 0 {
		t.Fatal("no run restored a shared warm checkpoint; sharing never engaged")
	}
	if fellBack != 0 {
		t.Fatalf("%d runs fell back to direct warmup; restores are failing", fellBack)
	}

	runcache.Reset()
	resetWarmShareStats()
	runcache.SetEnabled(false)
	direct, err := Fig10(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if restored, fellBack := WarmupSharingStats(); restored != 0 || fellBack != 0 {
		t.Fatalf("with the run cache disabled, %d runs restored and %d fell back; want direct warmups only", restored, fellBack)
	}
	if shared.Markdown() != direct.Markdown() {
		t.Fatal("figure output differs between shared and direct warmups")
	}
}

// TestFigureOutputIdenticalAcrossDiskTier pins the persistent tier:
// regenerating a figure after dropping the in-memory cache (a fresh
// process, in effect) serves runs from disk and renders byte-identical
// markdown, as does a run with caching disabled outright.
func TestFigureOutputIdenticalAcrossDiskTier(t *testing.T) {
	sc := cacheTestScale("disktier-fig")
	if err := runcache.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	runcache.Reset()
	runcache.ResetDiskStats()
	defer func() {
		runcache.SetEnabled(true)
		runcache.SetDir("")
		runcache.ResetDiskStats()
		runcache.Reset()
	}()

	cold, err := Fig1(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if hit, miss, _ := runcache.DiskStats(); hit != 0 || miss == 0 {
		t.Fatalf("cold run: disk stats %d hits / %d misses, want 0 hits and some misses", hit, miss)
	}

	// Drop the memory tier: the regeneration must be fed from disk.
	runcache.Reset()
	runcache.ResetDiskStats()
	warm, err := Fig1(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if hit, _, _ := runcache.DiskStats(); hit == 0 {
		t.Fatal("warm regeneration hit the disk tier zero times")
	}
	if warm.Markdown() != cold.Markdown() {
		t.Fatal("disk-served figure differs from the run that populated the cache")
	}

	// -nocache bypasses both tiers and still matches.
	runcache.SetEnabled(false)
	runcache.Reset()
	runcache.ResetDiskStats()
	off, err := Fig1(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if hit, miss, _ := runcache.DiskStats(); hit != 0 || miss != 0 {
		t.Fatalf("-nocache run touched the disk tier: %d hits / %d misses", hit, miss)
	}
	if off.Markdown() != cold.Markdown() {
		t.Fatal("figure output with caching disabled differs from cached output")
	}
}

// TestWarmCheckpointPersistsAcrossProcessBoundary pins the cross-process
// warmup story end to end: with a disk tier, a "new process" (memory tier
// dropped) restores warm checkpoints from disk instead of replaying any
// warmup trace.
func TestWarmCheckpointPersistsAcrossProcessBoundary(t *testing.T) {
	sc := cacheTestScale("warmdisk")
	if err := runcache.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	runcache.Reset()
	resetWarmShareStats()
	defer func() {
		runcache.SetDir("")
		runcache.ResetDiskStats()
		runcache.Reset()
	}()

	first, err := runApp(context.Background(), appLayouts()[0], "SPECjbb", sc, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	runcache.Reset() // fresh process: only the disk remains
	runcache.ResetDiskStats()
	resetWarmShareStats()
	// A different layout of the same benchmark: the app-level key misses,
	// but the warm checkpoint comes from disk.
	second, err := runApp(context.Background(), appLayouts()[5], "SPECjbb", sc, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored, fellBack := WarmupSharingStats(); restored != 1 || fellBack != 0 {
		t.Fatalf("warm sharing stats %d restored / %d fallbacks, want 1/0", restored, fellBack)
	}
	if hit, _, _ := runcache.DiskStats(); hit == 0 {
		t.Fatal("warm checkpoint was not served from disk")
	}
	if first.IPC == 0 || second.IPC == 0 {
		t.Fatal("degenerate run")
	}
}
