package trace

import (
	"bytes"
	"testing"
	"testing/quick"
)

// chunkTestTrace records n generator entries with the given chunk
// granularity and returns the encoded file plus the expected entries.
func chunkTestTrace(t *testing.T, n, per int) ([]byte, []Entry) {
	t.Helper()
	p, err := ProfileByName("TPC-C")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RecordChunked(&buf, NewGenerator(p, 3, 128), n, per); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), nextN(NewGenerator(p, 3, 128), n)
}

// nextN reads the next n entries of r.
func nextN(r Reader, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = r.Next()
	}
	return out
}

// writeAll appends every entry of es to w.
func writeAll(w *ChunkWriter, es []Entry) error {
	for _, e := range es {
		if err := w.Write(e); err != nil {
			return err
		}
	}
	return nil
}

func TestChunkRoundTrip(t *testing.T) {
	// 1000 entries over 64-entry chunks: 15 full chunks + a 40-entry tail.
	data, want := chunkTestTrace(t, 1000, 64)
	r, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != int64(len(want)) {
		t.Fatalf("Len %d, want %d", r.Len(), len(want))
	}
	for i, w := range want {
		if got := r.Next(); got != w {
			t.Fatalf("entry %d: %+v != %+v", i, got, w)
		}
	}
	if r.Exhausted() {
		t.Fatal("exhausted before the first post-EOF read")
	}
	// Total-Reader semantics: past the end, the final entry repeats with an
	// idle gap (an idle core), and Err stays nil (clean EOF).
	for i := 0; i < 3; i++ {
		e := r.Next()
		if e.Gap != 1<<20 || e.Addr != want[len(want)-1].Addr {
			t.Fatalf("post-EOF read %d: %+v", i, e)
		}
	}
	if !r.Exhausted() || r.Err() != nil {
		t.Fatalf("exhausted=%v err=%v after clean EOF", r.Exhausted(), r.Err())
	}
	if r.Pos() != int64(len(want)) {
		t.Fatalf("Pos %d after EOF, want %d", r.Pos(), len(want))
	}
}

// TestChunkSeekMatchesSequential pins the SeekTo contract: for any n —
// including positions straddling chunk boundaries — SeekTo(n) must leave
// the reader in exactly the state n sequential Next() calls would, both
// seeking forward and backward.
func TestChunkSeekMatchesSequential(t *testing.T) {
	const per = 16
	data, want := chunkTestTrace(t, 100, per) // 6 full chunks + 4-entry tail
	total := int64(len(want))
	open := func() *ChunkReader {
		r, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), false)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	positions := []int64{0, 1, per - 1, per, per + 1, 2*per - 1, 2 * per, 3*per + 7, total - 1, total}
	for _, n := range positions {
		r := open()
		if err := r.SeekTo(n); err != nil {
			t.Fatalf("SeekTo(%d): %v", n, err)
		}
		if r.Pos() != n {
			t.Fatalf("SeekTo(%d): Pos %d", n, r.Pos())
		}
		for i := n; i < total; i++ {
			if got := r.Next(); got != want[i] {
				t.Fatalf("SeekTo(%d) then entry %d: %+v != %+v", n, i, got, want[i])
			}
		}
		// SeekTo(total) must land on EOF with the correct final entry.
		if e := r.Next(); e.Gap != 1<<20 || e.Addr != want[total-1].Addr {
			t.Fatalf("SeekTo(%d) idle entry: %+v", n, e)
		}
	}
	// Backward seeks on one reader: consume everything, rewind to each
	// position, spot-check the next entry.
	r := open()
	for !r.Exhausted() {
		r.Next()
	}
	for _, n := range positions {
		if n == total {
			continue
		}
		if err := r.SeekTo(n); err != nil {
			t.Fatalf("backward SeekTo(%d): %v", n, err)
		}
		if got := r.Next(); got != want[n] {
			t.Fatalf("backward SeekTo(%d): %+v != %+v", n, got, want[n])
		}
	}
	// Out-of-range seeks are refused without disturbing the stream.
	if err := r.SeekTo(-1); err == nil {
		t.Error("SeekTo(-1) accepted")
	}
	if err := r.SeekTo(total + 1); err == nil {
		t.Error("SeekTo(total+1) accepted")
	}
}

// TestChunkTruncationEveryPrefix feeds every strict prefix of a valid
// file to NewChunkReader. The footer index lives at the end, so every
// truncation must be caught at open time — none may come up readable.
func TestChunkTruncationEveryPrefix(t *testing.T) {
	data, _ := chunkTestTrace(t, 200, 32)
	for n := 0; n < len(data); n++ {
		if _, err := NewChunkReader(bytes.NewReader(data[:n]), int64(n), false); err == nil {
			t.Fatalf("prefix of %d/%d bytes opened cleanly", n, len(data))
		}
	}
}

// TestChunkCorruptionEveryByte flips every byte of a valid file in turn.
// Every flip must be detected — at open (header, index, trailer) or as a
// chunk CRC failure during replay — and a detected chunk failure must
// stop the stream at the last good entry, not emit garbage.
func TestChunkCorruptionEveryByte(t *testing.T) {
	data, want := chunkTestTrace(t, 200, 32)
	for off := 0; off < len(data); off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		r, err := NewChunkReader(bytes.NewReader(bad), int64(len(bad)), false)
		if err != nil {
			continue // caught at open
		}
		clean := true
		for i := range want {
			e := r.Next()
			if r.Err() != nil {
				clean = false
				break
			}
			if e != want[i] {
				t.Fatalf("flip at %d: entry %d silently wrong: %+v != %+v", off, i, e, want[i])
			}
		}
		if clean && r.Err() == nil {
			t.Fatalf("flip at byte %d of %d went undetected", off, len(data))
		}
	}
}

// TestChunkPrefetchEquivalence runs the same trace with and without the
// background prefetch goroutine, reading 100 entries per step and
// interleaving seeks: the streams must match entry for entry (prefetch is
// a pure read-ahead).
func TestChunkPrefetchEquivalence(t *testing.T) {
	data, _ := chunkTestTrace(t, 5000, 256)
	plain, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), true)
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()
	for step := 0; !plain.Exhausted(); step++ {
		if step > 400 {
			t.Fatal("stream did not terminate")
		}
		if step%7 == 3 { // throw seeks at the prefetcher mid-stream
			n := (int64(step) * 131) % plain.Len()
			if err := plain.SeekTo(n); err != nil {
				t.Fatal(err)
			}
			if err := pre.SeekTo(n); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			if a, b := plain.Next(), pre.Next(); a != b {
				t.Fatalf("step %d entry %d: %+v != %+v", step, i, a, b)
			}
		}
		if plain.Pos() != pre.Pos() || plain.Exhausted() != pre.Exhausted() {
			t.Fatalf("step %d: pos %d/%d exhausted %t/%t", step,
				plain.Pos(), pre.Pos(), plain.Exhausted(), pre.Exhausted())
		}
	}
	if plain.Err() != nil || pre.Err() != nil {
		t.Fatalf("errs: %v / %v", plain.Err(), pre.Err())
	}
	// Close is idempotent and harmless on an exhausted reader.
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkStateful pins the Stateful contract used by warm-checkpoint
// restore: SaveState at an arbitrary position, restore into a fresh
// reader, identical continuation.
func TestChunkStateful(t *testing.T) {
	data, want := chunkTestTrace(t, 300, 32)
	r, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 117; i++ {
		r.Next()
	}
	state := r.SaveState()
	fresh, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	for i := 117; i < len(want); i++ {
		if got := fresh.Next(); got != want[i] {
			t.Fatalf("entry %d after restore: %+v != %+v", i, got, want[i])
		}
	}
	if err := fresh.RestoreState(state[:5]); err == nil {
		t.Error("short state accepted")
	}
	if err := fresh.RestoreState([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bad version accepted")
	}
}

// TestChunkNextZeroAlloc pins the zero-allocation steady state of the
// decode path: each run reads one chunk's 512 entries through Next, which
// decodes exactly one chunk into reused buffers.
func TestChunkNextZeroAlloc(t *testing.T) {
	const per = 512
	data, _ := chunkTestTrace(t, 16*per, per)
	r, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	r.Next() // warm up: first fill sizes the raw buffer
	if err := r.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if r.Pos() >= r.Len() {
			if err := r.SeekTo(0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < per; i++ {
			r.Next()
		}
	})
	if allocs > 0 {
		t.Fatalf("Next allocates %.1f per %d-entry chunk in steady state", allocs, per)
	}
}

// TestChunkWriterValidation covers the writer's guard rails.
func TestChunkWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewChunkWriter(&buf, -1); err == nil {
		t.Error("negative chunk size accepted")
	}
	if _, err := NewChunkWriter(&buf, chunkMaxEntries+1); err == nil {
		t.Error("oversized chunk accepted")
	}
	w, err := NewChunkWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Entry{Gap: -1}); err == nil {
		t.Error("negative gap accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Entry{}); err == nil {
		t.Error("write after Close accepted")
	}
	// An empty trace (header + empty index) round-trips.
	r, err := NewChunkReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("empty trace Len %d", r.Len())
	}
	if e := r.Next(); e.Gap != 1<<20 {
		t.Fatalf("empty trace Next: %+v", e)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// openChunked opens an in-memory HNTR2 trace.
func openChunked(t *testing.T, data []byte) *ChunkReader {
	t.Helper()
	r, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFileRoundTrip replays hand-picked edge entries — a backwards delta,
// a multi-byte gap, a 2^44 address — through 2-entry chunks.
func TestFileRoundTrip(t *testing.T) {
	entries := []Entry{
		{Gap: 0, Addr: 0x1000, Write: false},
		{Gap: 7, Addr: 0x1080, Write: true},
		{Gap: 3, Addr: 0x40, Write: false}, // backwards delta
		{Gap: 1 << 18, Addr: 1 << 44, Write: true},
		{Gap: 1, Addr: 0x80, Write: false},
	}
	var buf bytes.Buffer
	w, err := NewChunkWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(w, entries); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(entries)) {
		t.Errorf("count %d", w.Count())
	}
	r := openChunked(t, buf.Bytes())
	for i, want := range entries {
		if got := r.Next(); got != want {
			t.Fatalf("entry %d: %+v, want %+v", i, got, want)
		}
	}
	// Past EOF: idle entries at the final address.
	e := r.Next()
	if !r.Exhausted() || e.Gap != 1<<20 || e.Addr != entries[len(entries)-1].Addr {
		t.Errorf("post-EOF entry %+v", e)
	}
}

func TestFileRejectsGarbage(t *testing.T) {
	good, _ := chunkTestTrace(t, 10, 4)
	future := append([]byte(nil), good...)
	future[len(chunkMagic)] = chunkVersion + 1
	for name, data := range map[string][]byte{
		"garbage":        []byte("not a trace file, just some bytes"),
		"future version": future,
		"empty":          nil,
	} {
		if _, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), false); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRecordSyntheticAndReplay(t *testing.T) {
	p, err := ProfileByName("SPECjbb")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RecordChunked(&buf, NewGenerator(p, 3, 128), 5000, 0); err != nil {
		t.Fatal(err)
	}
	r := openChunked(t, buf.Bytes())
	// The replay must be identical to a fresh generator.
	g := NewGenerator(p, 3, 128)
	for i := 0; i < 5000; i++ {
		if got, want := r.Next(), g.Next(); got != want {
			t.Fatalf("entry %d: %+v, want %+v", i, got, want)
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(gaps []uint16, deltas []int32, writes []bool, per uint8) bool {
		n := min(len(gaps), len(deltas), len(writes))
		if n == 0 {
			return true
		}
		addr := uint64(1 << 30)
		entries := make([]Entry, n)
		for i := 0; i < n; i++ {
			addr = uint64(int64(addr) + int64(deltas[i]))
			entries[i] = Entry{Gap: int(gaps[i]), Addr: addr, Write: writes[i]}
		}
		var buf bytes.Buffer
		w, err := NewChunkWriter(&buf, 1+int(per%8))
		if err != nil || writeAll(w, entries) != nil || w.Close() != nil {
			return false
		}
		r, err := NewChunkReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), false)
		if err != nil {
			return false
		}
		for _, want := range entries {
			if r.Next() != want {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
