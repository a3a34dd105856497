package runcache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heteronoc/internal/ckpt"
)

// withDiskDir points the disk tier at a fresh directory for one test and
// restores the previous configuration afterwards.
func withDiskDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := SetDir(dir); err != nil {
		t.Fatal(err)
	}
	ResetDiskStats()
	t.Cleanup(func() {
		SetDir("")
		SetMaxBytes(0)
		ResetDiskStats()
	})
	return dir
}

// TestSetDirNoneDisablesTier pins the one -cachedir rule every command
// shares: "none", like "", means no disk tier, not a directory named
// "none" in the working directory.
func TestSetDirNoneDisablesTier(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	if err := os.Chdir(work); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	withDiskDir(t) // a configured tier that "none" must switch off
	if err := SetDir("none"); err != nil {
		t.Fatal(err)
	}
	if d := Dir(); d != "" {
		t.Fatalf(`SetDir("none") left Dir() = %q`, d)
	}
	if ents, err := os.ReadDir(work); err != nil || len(ents) != 0 {
		t.Fatalf(`SetDir("none") created %d entries in the working directory (%v)`, len(ents), err)
	}
}

type diskVal struct {
	Name string
	Xs   []int
}

func TestDiskTierSurvivesMemoryReset(t *testing.T) {
	Reset()
	defer Reset()
	withDiskDir(t)

	calls := 0
	fn := func() (diskVal, error) { calls++; return diskVal{"a", []int{1, 2, 3}}, nil }

	v, err := For("disk-k1", fn)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "a" || len(v.Xs) != 3 {
		t.Fatalf("bad value %+v", v)
	}

	// Dropping the memory tier simulates a fresh process: the next For
	// must come from disk, not rerun the recipe.
	Reset()
	v2, err := For("disk-k1", fn)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("recipe ran %d times across a memory reset, want 1", calls)
	}
	if v2.Name != v.Name || len(v2.Xs) != len(v.Xs) || v2.Xs[2] != 3 {
		t.Fatalf("disk round trip changed value: %+v", v2)
	}
	if hit, _, _ := DiskStats(); hit != 1 {
		t.Fatalf("disk hits = %d, want 1", hit)
	}
}

func TestDiskTierToleratesCorruption(t *testing.T) {
	Reset()
	defer Reset()
	dir := withDiskDir(t)

	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }
	if _, err := For("disk-k2", fn); err != nil {
		t.Fatal(err)
	}

	files, _ := filepath.Glob(filepath.Join(dir, "*"+diskExt))
	if len(files) != 1 {
		t.Fatalf("expected 1 cache file, found %d", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string][]byte{
		"empty":     {},
		"shortmag":  []byte("HN"),
		"badmagic":  append([]byte("XOCCKPT01"), data[len(ckpt.Magic):]...),
		"truncated": data[:len(data)-1],
		"bitflip": func() []byte {
			b := append([]byte(nil), data...)
			b[len(b)-1] ^= 0x40
			return b
		}(),
	}
	for name, bad := range corruptions {
		if err := os.WriteFile(files[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		Reset() // force a disk consult
		before := calls
		v, err := For("disk-k2", fn)
		if err != nil {
			t.Fatalf("%s: corrupted entry surfaced an error: %v", name, err)
		}
		if v != 42 {
			t.Fatalf("%s: got %d", name, v)
		}
		if calls != before+1 {
			t.Fatalf("%s: corrupted entry was used instead of rerunning", name)
		}
	}
}

func TestDiskTierBypassedWhenDisabled(t *testing.T) {
	Reset()
	defer Reset()
	dir := withDiskDir(t)

	SetEnabled(false)
	defer SetEnabled(true)

	calls := 0
	if _, err := For("disk-k3", func() (int, error) { calls++; return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*"+diskExt)); len(files) != 0 {
		t.Fatalf("disabled cache still wrote %d disk entries", len(files))
	}
	if hit, miss, _ := DiskStats(); hit != 0 || miss != 0 {
		t.Fatalf("disabled cache touched the disk tier: %d/%d", hit, miss)
	}

	// Pre-seed an entry with the cache on, then verify -nocache ignores it.
	SetEnabled(true)
	if _, err := For("disk-k4", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	SetEnabled(false)
	Reset()
	ran := false
	v, err := For("disk-k4", func() (int, error) { ran = true; return 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !ran || v != 2 {
		t.Fatalf("disabled cache served a disk entry (ran=%t v=%d)", ran, v)
	}
}

func TestDiskTierEvictsLRUUnderCap(t *testing.T) {
	Reset()
	defer Reset()
	dir := withDiskDir(t)

	// Store three ~1KiB entries, then cap the tier so only ~two fit.
	payload := strings.Repeat("x", 1024)
	keys := []string{"ev-a", "ev-b", "ev-c"}
	for i, k := range keys {
		if _, err := For(k, func() (string, error) { return payload, nil }); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is well defined even on coarse
		// filesystem timestamps.
		p := diskPath(dir, k)
		mt := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// Touch ev-a so ev-b becomes the oldest.
	Reset()
	if _, err := For("ev-a", func() (string, error) { t.Fatal("should hit disk"); return "", nil }); err != nil {
		t.Fatal(err)
	}

	SetMaxBytes(2500)
	// The next store triggers eviction of the oldest files.
	if _, err := For("ev-d", func() (string, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}

	if _, miss, evicted := DiskStats(); evicted == 0 {
		t.Fatalf("no evictions under a 2.5KiB cap with 4KiB stored (misses=%d)", miss)
	}
	if _, err := os.Stat(diskPath(dir, "ev-b")); !os.IsNotExist(err) {
		t.Fatal("LRU victim ev-b survived eviction")
	}
	if _, err := os.Stat(diskPath(dir, "ev-d")); err != nil {
		t.Fatal("freshly stored ev-d was evicted")
	}
}

func TestDiskTierSingleflightAcrossTiers(t *testing.T) {
	Reset()
	defer Reset()
	withDiskDir(t)

	var calls int
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			For("sf-k", func() (int, error) {
				calls++ // safe: the once-body runs exactly once
				time.Sleep(10 * time.Millisecond)
				return 5, nil
			})
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if calls != 1 {
		t.Fatalf("recipe ran %d times under concurrency, want 1", calls)
	}
}
