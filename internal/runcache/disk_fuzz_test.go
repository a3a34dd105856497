package runcache

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"testing"
)

// Allocation bound for one disk load: diskAllocPerByte bytes per input
// byte plus diskAllocSlack. The per-byte share covers the file read, the
// payload copy, gob's message buffer and an []int element decoded from a
// one-byte varint. encoding/gob may allocate up to 10 MiB for a claimed
// slice length before it reads the elements, so the slack is that plus
// the decoder's type tables.
const (
	diskAllocPerByte = 16
	diskAllocSlack   = 10<<20 + 256<<10
)

// FuzzDiskLoad writes mutated disk-tier entries where a key's file lives
// and loads them, recomputing the CRC footer so the mutations reach the
// envelope and gob decoders. Every input must be a miss or a value,
// without panics and within the allocation bound above.
func FuzzDiskLoad(f *testing.F) {
	dir := f.TempDir()
	if err := SetDir(dir); err != nil {
		f.Fatal(err)
	}
	defer SetDir("")
	const key = "fuzz-disk-key"
	diskStore(key, diskVal{Name: "seed", Xs: []int{1, 2, 3, 1 << 40}})
	seed, err := os.ReadFile(diskPath(dir, key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := len(data); n >= 4 {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(data[n-4:], crc32.ChecksumIEEE(data[:n-4]))
		}
		if err := os.WriteFile(diskPath(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		hits, misses, _ := DiskStats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok := diskLoad[diskVal](key)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > diskAllocPerByte*uint64(len(data))+diskAllocSlack {
			t.Fatalf("load of %d bytes allocated %d bytes", len(data), grew)
		}
		h2, m2, _ := DiskStats()
		if ok && (h2 != hits+1 || m2 != misses) || !ok && (h2 != hits || m2 != misses+1) {
			t.Fatalf("load ok=%t moved hits %d->%d, misses %d->%d", ok, hits, h2, misses, m2)
		}
	})
}
