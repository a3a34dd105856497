package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzChunkRoundTrip drives the ChunkWriter→ChunkReader pair with
// arbitrary entry material — huge negative address deltas, zero-gap
// bursts, pathological gap values — over 3-entry chunks, so entries
// straddle chunk boundaries, and checks the replay is exact and ends in a
// clean (Err-free) EOF. The byte stream the fuzzer mutates is interpreted
// as a sequence of (gap, delta, write) triples.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 64))         // max gaps, huge negative deltas
	f.Add(bytes.Repeat([]byte{0x00, 0x80, 1}, 9)) // gap=0 bursts
	f.Fuzz(func(t *testing.T, raw []byte) {
		const rec = 18 // 8 gap bytes + 8 delta bytes + 1 write byte + 1 spare
		n := len(raw) / rec
		if n > 4096 {
			n = 4096
		}
		entries := make([]Entry, n)
		addr := uint64(1 << 45)
		for i := 0; i < n; i++ {
			r := raw[i*rec:]
			gap := int(uint32(r[0]) | uint32(r[1])<<8 | uint32(r[2])<<16) // keep Gap sane but allow 2^24-1
			delta := int64(binary.LittleEndian.Uint64(r[8:]))
			addr = uint64(int64(addr) + delta)
			entries[i] = Entry{Gap: gap, Addr: addr, Write: r[16]&1 != 0}
		}
		var buf bytes.Buffer
		w, err := NewChunkWriter(&buf, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBatch(entries); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewChunkReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), false)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range entries {
			if got := r.Next(); got != want {
				t.Fatalf("entry %d: %+v != %+v", i, got, want)
			}
		}
		if e := r.Next(); e.Gap != 1<<20 {
			t.Fatalf("post-EOF entry %+v", e)
		}
		if r.Err() != nil {
			t.Fatalf("clean round trip reported corruption: %v", r.Err())
		}
	})
}

// FuzzChunkOpen throws arbitrary bytes at the HNTR2 parser: it must
// reject or replay them without panicking, and any file it does accept
// must replay within its own advertised length.
func FuzzChunkOpen(f *testing.F) {
	var seed bytes.Buffer
	_ = RecordChunked(&seed, NewURGenerator(0, 64), 300, 32)
	f.Add(seed.Bytes())
	f.Add([]byte(chunkMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := NewChunkReader(bytes.NewReader(raw), int64(len(raw)), false)
		if err != nil {
			return
		}
		limit := r.Len()
		if limit > 1<<16 {
			limit = 1 << 16
		}
		for i := int64(0); i < limit; i++ {
			r.Next()
			if r.Err() != nil {
				return
			}
		}
	})
}

// TestFileTruncationEveryPrefix writes every strict prefix of a valid
// trace to disk and opens it through OpenChunked. One entry per chunk puts
// a chunk boundary after every entry, so some prefixes end exactly where a
// flat stream would have ended cleanly; none may open and replay as a
// shorter trace — the bug this pins down is a cut file passing for a clean
// EOF. The whole file must replay exactly and end Err-free.
func TestFileTruncationEveryPrefix(t *testing.T) {
	entries := []Entry{
		{Gap: 0, Addr: 1 << 44, Write: true}, // multi-byte delta
		{Gap: 300, Addr: 0x80, Write: false}, // multi-byte gap, big negative delta
		{Gap: 1, Addr: 0x81, Write: true},
		{Gap: 0, Addr: 1 << 50, Write: false},
	}
	var buf bytes.Buffer
	w, err := NewChunkWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	path := filepath.Join(t.TempDir(), "trace.hntr")
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if f, err := OpenChunked(path, n%2 == 1); err == nil {
			f.Close()
			t.Fatalf("prefix of %d/%d bytes opened cleanly", n, len(data))
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenChunked(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, want := range entries {
		if got := f.Next(); got != want {
			t.Fatalf("entry %d: %+v != %+v", i, got, want)
		}
	}
	f.Next()
	if !f.Exhausted() || f.Err() != nil {
		t.Fatalf("full file: exhausted=%v err=%v", f.Exhausted(), f.Err())
	}
}

// TestChunkReaderErrOnReadFailure distinguishes an underlying I/O error
// from a clean end of trace: a read that fails mid-file must surface
// through Err, with and without prefetch.
func TestChunkReaderErrOnReadFailure(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordChunked(&buf, NewURGenerator(0, 64), 300, 32); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	size := int64(len(data))
	idxLen := int64(binary.LittleEndian.Uint32(data[size-chunkTrailerLen:]))
	flaky := &flakyReaderAt{data: data, failFrom: size / 2, failTo: size - chunkTrailerLen - idxLen}
	for _, prefetch := range []bool{false, true} {
		r, err := NewChunkReader(flaky, size, prefetch)
		if err != nil {
			t.Fatalf("prefetch=%t: open: %v", prefetch, err)
		}
		for !r.Exhausted() {
			r.Next()
		}
		r.Close()
		if r.Err() == nil {
			t.Fatalf("prefetch=%t: read failure reported as clean EOF", prefetch)
		}
		if r.Pos() >= r.Len() {
			t.Fatalf("prefetch=%t: replayed all %d entries through a failing read", prefetch, r.Len())
		}
	}
}

// flakyReaderAt serves data but fails with a non-EOF error for any read
// starting in [failFrom, failTo) — the chunk region, so the header and
// footer index still open cleanly.
type flakyReaderAt struct {
	data             []byte
	failFrom, failTo int64
}

func (f *flakyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= f.failFrom && off < f.failTo {
		return 0, io.ErrClosedPipe
	}
	return bytes.NewReader(f.data).ReadAt(p, off)
}
