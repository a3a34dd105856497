package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/dse"
	"heteronoc/internal/noc"
	"heteronoc/internal/runcache"
	"heteronoc/internal/trace"
)

// buildCheckpoint writes a small valid NOCCKPT01 container to dir and
// returns its path and bytes.
func buildCheckpoint(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	w := ckpt.NewWriter(ckpt.Header{Kind: "test-run", Version: 1})
	w.Str("body-field")
	w.I64(-42)
	w.Bytes([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	data := w.Finish()
	p := filepath.Join(dir, "valid.ckpt")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p, data
}

func TestValidateFileAcceptsValidCheckpoint(t *testing.T) {
	p, data := buildCheckpoint(t, t.TempDir())
	h, size, err := validateFile(p)
	if err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	if h != (ckpt.Header{Kind: "test-run", Version: 1}) || size != len(data) {
		t.Fatalf("validateFile = %+v, %d bytes; want test-run v1, %d bytes", h, size, len(data))
	}
	if !validate([]string{p}) {
		t.Fatal("validate() reported failure for a valid file")
	}
}

func TestValidateFileRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	_, data := buildCheckpoint(t, dir)
	// Every truncation point must fail with ErrCorrupt: inside the magic,
	// inside the header, inside the body, and into the CRC footer.
	for _, cut := range []int{0, 3, len(ckpt.Magic) + 2, len(data) / 2, len(data) - 4, len(data) - 1} {
		p := filepath.Join(dir, fmt.Sprintf("trunc-%d.ckpt", cut))
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := validateFile(p)
		if err == nil {
			t.Fatalf("cut=%d: truncated checkpoint validated", cut)
		}
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("cut=%d: error %v does not wrap ckpt.ErrCorrupt", cut, err)
		}
		if validate([]string{p}) {
			t.Fatalf("cut=%d: validate() reported ok (CLI would exit 0)", cut)
		}
	}
}

func TestValidateFileRejectsBitFlips(t *testing.T) {
	dir := t.TempDir()
	_, data := buildCheckpoint(t, dir)
	// Flip one bit in each region: magic, header fields, body payload and
	// the CRC footer itself. All must fail closed with ErrCorrupt.
	regions := map[string]int{
		"magic":  2,
		"header": len(ckpt.Magic) + 3,
		"body":   len(data) - 12,
		"footer": len(data) - 2,
	}
	for name, off := range regions {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		p := filepath.Join(dir, "flip-"+name+".ckpt")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := validateFile(p)
		if err == nil {
			t.Fatalf("%s flip at %d validated", name, off)
		}
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("%s flip: error %v does not wrap ckpt.ErrCorrupt", name, err)
		}
		if validate([]string{p}) {
			t.Fatalf("%s flip: validate() reported ok (CLI would exit 0)", name)
		}
	}
}

func TestValidateFileRejectsMissingFile(t *testing.T) {
	if _, _, err := validateFile(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("missing file validated")
	}
}

// TestValidateEveryPersistedKind runs validate over the files the rest of
// the repository persists — a DSE frontier, the run-cache entries its
// probes leave on disk, a flit trace and a CMP warm checkpoint — and over
// a truncated copy of each, which must fail.
func TestValidateEveryPersistedKind(t *testing.T) {
	dir := t.TempDir()
	runcache.Reset()
	if err := runcache.SetDir(filepath.Join(dir, "cache")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		runcache.SetDir("")
		runcache.Reset()
	}()
	frontier := filepath.Join(dir, "search.hndse")
	if _, err := dse.Search(dse.SearchConfig{
		Eval:   dse.EvalConfig{W: 4, H: 4, InjectionRate: 0.05, Packets: 200, Seed: 3},
		MinBig: 3, MaxBig: 4, PopSize: 4, Generations: 1, Seed: 5,
		FrontierPath: frontier,
	}); err != nil {
		t.Fatal(err)
	}
	flt := filepath.Join(dir, "run.flt")
	if err := os.WriteFile(flt, noc.NewFlitTracer(4, noc.FlitTracerConfig{}).EncodeTrace(), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "cache", "*.rc"))
	if len(entries) == 0 {
		t.Fatal("search left no run-cache entries on disk")
	}
	warm := filepath.Join(dir, "warm.ckpt")
	if err := os.WriteFile(warm, warmSnapshot(t), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ path, kind string }{
		{frontier, "dse-frontier"}, {flt, noc.KindFlitTrace}, {entries[0], "runcache"}, {warm, cmp.KindWarmSystem},
	} {
		p := f.path
		if h, _, err := validateFile(p); err != nil || h.Kind != f.kind {
			t.Fatalf("%s: kind %q, error %v; want %q", p, h.Kind, err, f.kind)
		}
		if !validate([]string{p}) {
			t.Fatalf("%s: valid file rejected", p)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cut := p + ".cut"
		if err := os.WriteFile(cut, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := validateFile(cut); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("%s: truncated copy gave %v, want ckpt.ErrCorrupt", p, err)
		}
	}
}

// warmSnapshot returns the warm checkpoint of a 2x2 SPECjbb CMP.
func warmSnapshot(t *testing.T) []byte {
	t.Helper()
	p, err := trace.ProfileByName("SPECjbb")
	if err != nil {
		t.Fatal(err)
	}
	l := core.NewBaseline(2, 2)
	traces := make([]trace.Reader, l.Mesh.NumTerminals())
	for i := range traces {
		traces[i] = trace.NewGenerator(p, i, 128)
	}
	s, err := cmp.New(cmp.Config{Layout: l, Traces: traces})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	data, err := s.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
