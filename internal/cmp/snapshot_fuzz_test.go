package cmp

import (
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"heteronoc/internal/core"
)

// fuzzSystem builds the restore target: a 2x2 system on SPECjbb
// generators, small enough that one execution (build, restore, run) takes
// about a millisecond.
func fuzzSystem(t testing.TB, prefetch bool) *System {
	t.Helper()
	l := core.NewBaseline(2, 2)
	s, err := New(Config{Layout: l, Traces: benchTraces(t, "SPECjbb", l.Mesh.NumTerminals()), Prefetch: prefetch})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// restoreAllocSlack covers the fixed-size part of a restore's allocations
// (reader, header strings, the per-reader blob table, error values); the
// variable part is the per-reader blob copies, bounded by the input.
const restoreAllocSlack = 16 << 10

// FuzzRestoreWarmSnapshot feeds mutated warm checkpoints to
// RestoreWarmSnapshot. The CRC footer is recomputed after each mutation so
// inputs get past the container check and reach the cache, directory and
// trace-position decoders. Every input must either be refused or restore
// a system that then runs; restore must never panic and must allocate no
// more than the input size plus a constant.
func FuzzRestoreWarmSnapshot(f *testing.F) {
	for _, seed := range []struct {
		entries  int
		prefetch bool
	}{
		{300, false},
		{150, true},
	} {
		s := fuzzSystem(f, seed.prefetch)
		mustWarm(f, s, seed.entries)
		snap, err := s.WarmSnapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap, seed.prefetch)
	}
	f.Fuzz(func(t *testing.T, data []byte, prefetch bool) {
		if n := len(data); n >= 4 {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(data[n-4:], crc32.ChecksumIEEE(data[:n-4]))
		}
		s := fuzzSystem(t, prefetch)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.RestoreWarmSnapshot(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))+restoreAllocSlack {
			t.Fatalf("restore of %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		if err := s.Run(300); err != nil {
			t.Fatalf("restored system failed to run: %v", err)
		}
	})
}
