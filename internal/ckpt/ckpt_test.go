package ckpt

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	h := Header{Kind: "test", Version: 3}
	w := NewWriter(h)
	w.U64(0)
	w.U64(1 << 60)
	w.I64(-1 << 40)
	w.Int(-42)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.Str("héllo")
	data := w.Finish()

	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Header() != h {
		t.Fatalf("header mismatch: got %+v want %+v", r.Header(), h)
	}
	if v := r.U64(); v != 0 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.I64(); v != -1<<40 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.Int(); v != -42 {
		t.Errorf("Int = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool sequence wrong")
	}
	if v := r.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := r.F64(); !math.IsInf(v, -1) {
		t.Errorf("F64 = %v", v)
	}
	if b := r.Bytes(); len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Errorf("Bytes = %v", b)
	}
	if b := r.Bytes(); len(b) != 0 {
		t.Errorf("empty Bytes = %v", b)
	}
	if s := r.Str(); s != "héllo" {
		t.Errorf("Str = %q", s)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	w := NewWriter(Header{Kind: "test", Version: 1})
	w.U64(12345)
	w.Str("payload")
	good := w.Finish()

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:5],
		"badmagic":  append([]byte("XOCCKPT01"), good[9:]...),
		"truncated": good[:len(good)-6],
	}
	// One flipped byte anywhere must fail the CRC.
	for i := 0; i < len(good); i += 7 {
		b := append([]byte(nil), good...)
		b[i] ^= 0x40
		cases["flip@"+string(rune('0'+i%10))] = b
	}
	for name, data := range cases {
		if _, err := NewReader(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	w := NewWriter(Header{Kind: "test", Version: 1})
	w.U64(1)
	w.U64(2)
	data := w.Finish()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.U64() // consume only one of two fields
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Done = %v, want ErrCorrupt", err)
	}
}

func TestStickyError(t *testing.T) {
	w := NewWriter(Header{Kind: "test", Version: 1})
	w.Bool(true)
	data := w.Finish()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Bool()
	r.U64() // past the end: sets sticky error
	if r.Err() == nil {
		t.Fatal("expected sticky error")
	}
	// Every subsequent accessor is a zero-value no-op.
	if r.U64() != 0 || r.I64() != 0 || r.Bool() || r.F64() != 0 || r.Str() != "" || r.Bytes() != nil {
		t.Error("accessors not inert after sticky error")
	}
}

func TestReadHeaderOnly(t *testing.T) {
	w := NewWriter(Header{Kind: "cmp-warm", Version: 2})
	w.U64(7)
	h, err := ReadHeader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if h != (Header{Kind: "cmp-warm", Version: 2}) {
		t.Errorf("header = %+v", h)
	}
}

// TestHeaderBytes pins the container prefix: magic, kind, version and
// five reserved zero varints, so every kind's files keep their bytes. A
// container whose reserved varints are not zero still reads.
func TestHeaderBytes(t *testing.T) {
	w := NewWriter(Header{Kind: "k", Version: 1})
	w.Str("body")
	const want = "4e4f43434b50543031" + "016b" + "01" + "0000000000" + "04626f6479" + "7f68c1c4"
	if got := hex.EncodeToString(w.Finish()); got != want {
		t.Fatalf("container\n got %s\nwant %s", got, want)
	}
	nonzero, err := hex.DecodeString("4e4f43434b50543031" + "016b" + "01" + "e8070604092a" + "04626f6479" + "635dc00c")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(nonzero)
	if err != nil {
		t.Fatal(err)
	}
	if h, body := r.Header(), r.Str(); h != (Header{Kind: "k", Version: 1}) || body != "body" || r.Done() != nil {
		t.Fatalf("header %+v, body %q, Done %v", h, body, r.Done())
	}
}

// TestCountBoundedByRemaining pins the allocation guard: a count may not
// exceed the bytes left in the body, whatever the varint claims.
func TestCountBoundedByRemaining(t *testing.T) {
	w := NewWriter(Header{Kind: "test", Version: 1})
	w.U64(3)
	w.U64(1)
	w.U64(2)
	w.U64(3)
	w.U64(1 << 40) // a count no body could back
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(); n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}
	r.U64()
	r.U64()
	r.U64()
	if n := r.Count(); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("oversized count: got %d, err %v; want 0 and ErrCorrupt", n, r.Err())
	}
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "state.ckpt")
	for _, data := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(p)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %q (%v), want %q", got, err, data)
		}
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Fatalf("directory holds %d files after two writes, want 1", len(names))
	}
	// A failed rename (the target is a non-empty directory) must leave no
	// temp file behind.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if names, _ := os.ReadDir(dir); len(names) != 2 {
		t.Fatalf("failed write left %d entries, want 2 (state.ckpt, blocked)", len(names))
	}
}
