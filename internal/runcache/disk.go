package runcache

// Persistent disk tier. When a cache directory is configured (the
// -cachedir flag of cmd/experiments, default ~/.cache/heteronoc), memoized
// results also survive the process: a For miss consults the disk before
// running the recipe, and a computed result is written back. Keys reuse
// the same canonical strings as the in-memory tier; the file name is the
// SHA-256 of a versioned prefix plus the key, so any format change bumps
// diskVersion and old entries simply miss.
//
// The tier is strictly best-effort and corruption-tolerant: a missing,
// truncated, mis-versioned or bit-flipped file — or a value that fails to
// gob-decode — is a miss, never an error. Each file is a NOCCKPT01
// container of kind "runcache" (version diskVersion) whose body is the
// gob payload; ckpt.WriteFile writes it to a temp file and renames it
// into place, so readers never observe partial entries.
//
// Disk lookups and stores run inside the in-memory entry's sync.Once, so
// singleflight is preserved across tiers: concurrent callers of one key
// perform at most one disk read and one recipe execution between them.
// Disabling the cache (SetEnabled(false), i.e. -nocache) bypasses the
// disk tier entirely in both directions.
//
// A byte cap (SetMaxBytes, the -cachesize flag) is enforced after each
// store by evicting least-recently-used files — hits refresh a file's
// mtime — until the total is back under the cap.

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"heteronoc/internal/chaos"
	"heteronoc/internal/ckpt"
)

const (
	// diskKind labels a disk-tier entry container.
	diskKind = "runcache"
	// diskVersion is folded into every file name and stored as the
	// container version. Bump it whenever the envelope or any cached
	// value's encoding changes; stale entries then hash to different
	// names and age out via the LRU cap.
	diskVersion = 3 // v3: NOCCKPT01 envelope; v2: traffic.RunResult gained attribution fields
	diskExt     = ".rc"
)

var (
	diskMu  sync.Mutex
	diskDir string
	diskMax int64

	diskHits      atomic.Int64
	diskMisses    atomic.Int64
	diskEvictions atomic.Int64

	// diskChaos optionally injects faults into the tier's I/O paths
	// (slow reads/writes, corrupted payloads). The tier's contract makes
	// every injected fault a graceful miss, which is exactly what the
	// chaos suite asserts. Holds a *chaos.Chaos; nil when disarmed.
	diskChaos atomic.Pointer[chaos.Chaos]
)

// SetChaos arms (or, with nil, disarms) fault injection on the disk tier.
func SetChaos(c *chaos.Chaos) { diskChaos.Store(c) }

// DefaultDir is the disk tier's conventional directory, heteronoc under
// the user cache directory (~/.cache/heteronoc on Linux); "" (no disk
// tier) when no home directory is known.
func DefaultDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "heteronoc")
	}
	return ""
}

// SetDir configures the disk tier's directory, creating it if needed.
// "" and "none" both turn the tier off: every command's -cachedir flag
// takes either to mean "no disk tier".
func SetDir(dir string) error {
	if dir == "none" {
		dir = ""
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	diskMu.Lock()
	diskDir = dir
	diskMu.Unlock()
	return nil
}

// Dir returns the configured disk directory ("" when disabled).
func Dir() string {
	diskMu.Lock()
	defer diskMu.Unlock()
	return diskDir
}

// SetMaxBytes caps the disk tier's total size; 0 means unlimited.
// Least-recently-used entries are evicted after each store.
func SetMaxBytes(n int64) {
	diskMu.Lock()
	diskMax = n
	diskMu.Unlock()
}

// DiskStats returns cumulative disk-tier counters. A hit loaded a value
// from disk; a miss consulted the disk without finding a usable entry
// (absent, corrupt or undecodable all count the same).
func DiskStats() (hit, miss, evicted int64) {
	return diskHits.Load(), diskMisses.Load(), diskEvictions.Load()
}

// ResetDiskStats zeroes the disk counters (tests).
func ResetDiskStats() {
	diskHits.Store(0)
	diskMisses.Store(0)
	diskEvictions.Store(0)
}

func diskPath(dir, key string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("heteronoc-runcache|v%d|%s", diskVersion, key)))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+diskExt)
}

// diskLoad returns the cached value for key if the disk tier holds a
// valid, decodable entry. Every failure mode is a miss.
func diskLoad[T any](key string) (T, bool) {
	var zero T
	dir := Dir()
	if dir == "" || !enabled.Load() {
		return zero, false
	}
	p := diskPath(dir, key)
	data, err := os.ReadFile(p)
	if err != nil {
		diskMisses.Add(1)
		return zero, false
	}
	if c := diskChaos.Load(); c != nil {
		c.Hit(chaos.PointDiskLoad)
		data = c.Mangle(chaos.PointDiskCorrupt, data)
	}
	v, ok := decodeDiskEntry[T](data)
	if !ok {
		diskMisses.Add(1)
		return zero, false
	}
	now := time.Now()
	os.Chtimes(p, now, now) // refresh LRU position; failure is harmless
	diskHits.Add(1)
	return v, true
}

// decodeDiskEntry unwraps one disk-tier file; any structural or gob
// failure reports !ok.
func decodeDiskEntry[T any](data []byte) (v T, ok bool) {
	r, err := ckpt.NewReader(data)
	if err != nil {
		return v, false
	}
	if h := r.Header(); h.Kind != diskKind || h.Version != diskVersion {
		return v, false
	}
	payload := r.Bytes()
	if r.Done() != nil {
		return v, false
	}
	return v, gob.NewDecoder(bytes.NewReader(payload)).Decode(&v) == nil
}

// diskStore writes v for key. Errors are swallowed: the disk tier never
// fails a run, it only misses next time.
func diskStore[T any](key string, v T) {
	dir := Dir()
	if dir == "" || !enabled.Load() {
		return
	}
	if c := diskChaos.Load(); c != nil {
		c.Hit(chaos.PointDiskStore)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return // unserializable value: memory-only entry
	}
	w := ckpt.NewWriter(ckpt.Header{Kind: diskKind, Version: diskVersion})
	w.Bytes(buf.Bytes())
	if ckpt.WriteFile(diskPath(dir, key), w.Finish()) != nil {
		return
	}
	evictOverCap(dir)
}

// evictOverCap removes least-recently-used entries until the tier fits
// the byte cap.
func evictOverCap(dir string) {
	diskMu.Lock()
	max := diskMax
	diskMu.Unlock()
	if max <= 0 {
		return
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"+diskExt))
	if err != nil {
		return
	}
	type fileAge struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []fileAge
	var total int64
	for _, p := range names {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		files = append(files, fileAge{p, fi.Size(), fi.ModTime()})
		total += fi.Size()
	}
	if total <= max {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= max {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			diskEvictions.Add(1)
		}
	}
}
