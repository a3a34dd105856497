package runcache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"heteronoc/internal/chaos"
	"heteronoc/internal/ckpt"
)

// TestDiskStoreCrashMidWriteLeavesNoLoadablePartial simulates a process
// killed mid-store. The write protocol (temp file + rename) means a crash
// leaves either a stray temp file — which the load path never reads — or,
// on a filesystem that tore the write anyway, a prefix of the entry at
// the final path. Every such prefix must be an unloadable miss: the next
// For re-executes the recipe and repairs the entry.
func TestDiskStoreCrashMidWriteLeavesNoLoadablePartial(t *testing.T) {
	Reset()
	defer Reset()
	dir := withDiskDir(t)

	calls := 0
	fn := func(context.Context) (diskVal, error) { calls++; return diskVal{"crash", []int{9, 9}}, nil }
	if _, err := ForCtx(context.Background(), "crash-k", fn); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"+diskExt))
	if err != nil || len(names) != 1 {
		t.Fatalf("expected one entry, got %v (%v)", names, err)
	}
	full, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}

	// A crash before rename leaves only a temp file; the tier must treat
	// the entry as absent without touching the stray file.
	stray := filepath.Join(dir, ".tmp-stray")
	if err := os.WriteFile(stray, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(names[0]); err != nil {
		t.Fatal(err)
	}
	Reset()
	if _, err := ForCtx(context.Background(), "crash-k", fn); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("recipe ran %d times, want 2 (stray temp must not satisfy a load)", calls)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("load path disturbed the stray temp file: %v", err)
	}

	// A torn write at the final path: every strict prefix of a valid
	// entry must miss (magic too short, missing CRC, CRC mismatch over a
	// truncated gob payload).
	for _, cut := range []int{0, 1, len(ckpt.Magic), len(ckpt.Magic) + 4, len(full) / 2, len(full) - 1} {
		if err := os.WriteFile(names[0], full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		Reset()
		before := calls
		v, err := ForCtx(context.Background(), "crash-k", fn)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if calls != before+1 {
			t.Fatalf("cut=%d: truncated entry satisfied a load (calls %d)", cut, calls)
		}
		if v.Name != "crash" || len(v.Xs) != 2 {
			t.Fatalf("cut=%d: recomputed value corrupted: %+v", cut, v)
		}
		// The re-execution rewrote a valid entry; confirm before moving on.
		repaired, err := os.ReadFile(names[0])
		if err != nil || len(repaired) != len(full) {
			t.Fatalf("cut=%d: entry not repaired (%v, %d bytes)", cut, err, len(repaired))
		}
	}
}

// TestDiskChaosCorruptionIsGracefulMiss drives the chaos seam: with
// corruption injected on every read, loads degrade to misses (recipes
// re-run) and nothing errors or crashes.
func TestDiskChaosCorruptionIsGracefulMiss(t *testing.T) {
	Reset()
	defer Reset()
	withDiskDir(t)

	ch := chaos.New(3)
	ch.Set(chaos.PointDiskCorrupt, chaos.Spec{Prob: 1, Corrupt: true})
	SetChaos(ch)
	defer SetChaos(nil)

	calls := 0
	fn := func(context.Context) (diskVal, error) { calls++; return diskVal{"chaos", []int{1}}, nil }
	if _, err := ForCtx(context.Background(), "chaos-k", fn); err != nil {
		t.Fatal(err)
	}
	Reset()
	if _, err := ForCtx(context.Background(), "chaos-k", fn); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("recipe ran %d times, want 2 (corrupted read must miss)", calls)
	}
	if ch.Fired(chaos.PointDiskCorrupt) == 0 {
		t.Fatal("corruption point never fired")
	}
}

// TestDiskEvictionConcurrentWithLoads races the LRU evictor (triggered by
// stores under a tight byte cap) against concurrent loads of the same
// directory. Run under -race in CI: the property is that every For call
// still returns the correct value — an evicted entry is recomputed, a
// present one is loaded — with no errors and no data races.
func TestDiskEvictionConcurrentWithLoads(t *testing.T) {
	Reset()
	defer Reset()
	withDiskDir(t)
	SetMaxBytes(2048) // a handful of entries; stores evict constantly

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Writers churn distinct keys to force evictions.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("evict-w%d-%d", w, i)
				v, err := ForCtx(context.Background(), key, func(context.Context) (diskVal, error) {
					return diskVal{key, []int{i}}, nil
				})
				if err != nil {
					errs <- err
					return
				}
				if v.Name != key {
					errs <- fmt.Errorf("key %s got value %q", key, v.Name)
					return
				}
			}
		}(w)
	}
	// Readers hammer a shared key set; entries may be evicted between
	// reads, so each load either hits disk or recomputes — both valid.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				key := fmt.Sprintf("evict-shared-%d", i%5)
				Reset() // drop the memory tier so the disk path is exercised
				v, err := ForCtx(context.Background(), key, func(context.Context) (diskVal, error) {
					return diskVal{key, nil}, nil
				})
				if err != nil {
					errs <- err
					return
				}
				if v.Name != key {
					errs <- fmt.Errorf("key %s got value %q", key, v.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, _, evicted := DiskStats(); evicted == 0 {
		t.Fatal("cap never triggered an eviction; the race saw no contention")
	}
}
