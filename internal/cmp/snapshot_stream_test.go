package cmp

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"heteronoc/internal/core"
	"heteronoc/internal/trace"
)

// countingChunkReader counts Next() calls while keeping the embedded
// reader's Stateful/Seeker capabilities visible — the probe that proves
// restore landed by state, not by replay.
type countingChunkReader struct {
	*trace.ChunkReader
	nexts int
}

func (c *countingChunkReader) Next() trace.Entry {
	c.nexts++
	return c.ChunkReader.Next()
}

// statelessReader hides every capability except Next, so the reader has
// no position state to save or restore.
type statelessReader struct{ r trace.Reader }

func (s statelessReader) Next() trace.Entry { return s.r.Next() }

// chunkBenchFiles records nEntries of each core's generator stream into
// an in-memory HNTR2 file.
func chunkBenchFiles(t *testing.T, bench string, cores, nEntries int) [][]byte {
	t.Helper()
	p, err := trace.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, cores)
	for i := range out {
		var buf bytes.Buffer
		if err := trace.RecordChunked(&buf, trace.NewGenerator(p, i, 128), nEntries, 512); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

func openChunkTraces(t *testing.T, files [][]byte, wrap func(*trace.ChunkReader) trace.Reader) []trace.Reader {
	t.Helper()
	out := make([]trace.Reader, len(files))
	for i, data := range files {
		cr, err := trace.NewChunkReader(bytes.NewReader(data), int64(len(data)), false)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = wrap(cr)
	}
	return out
}

// TestWarmRestoreSeekableNoReplay is the streaming-pipeline acceptance
// test: with file-backed chunked traces, warm-checkpoint restore must
// reach the post-warmup position with zero Next() calls (one Seek per
// reader, not an O(warmup) replay), and the restored system must produce
// fingerprints bit-identical to a direct warmup, with sharded ticking at
// 0, 1 and GOMAXPROCS workers. Readers without position state are
// refused by both restore and WarmSnapshot; the refused restore leaves
// the system as built, so a direct warmup of it matches too.
func TestWarmRestoreSeekableNoReplay(t *testing.T) {
	const entries, cycles = 400, 2000
	l := core.NewBaseline(8, 8)
	files := chunkBenchFiles(t, "SPECjbb", l.Mesh.NumTerminals(), 4000)

	newSys := func(traces []trace.Reader) *System {
		s, err := New(Config{Layout: l, Traces: traces})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Reference: direct warmup on file-backed traces.
	direct := newSys(openChunkTraces(t, files, func(c *trace.ChunkReader) trace.Reader { return c }))
	mustWarm(t, direct, entries)
	snap, err := direct.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := runFingerprint(t, direct, cycles)

	workerSet := []int{0, 1, runtime.GOMAXPROCS(0)}
	for _, workers := range workerSet {
		// State-restore path: counting readers prove no replay happened.
		counters := make([]*countingChunkReader, 0, len(files))
		traces := openChunkTraces(t, files, func(c *trace.ChunkReader) trace.Reader {
			cc := &countingChunkReader{ChunkReader: c}
			counters = append(counters, cc)
			return cc
		})
		restored := newSys(traces)
		if err := restored.RestoreWarmSnapshot(snap); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, cc := range counters {
			if cc.nexts != 0 {
				t.Fatalf("workers=%d: reader %d replayed %d entries on restore", workers, i, cc.nexts)
			}
			if cc.Pos() != entries {
				t.Fatalf("workers=%d: reader %d at %d, want %d", workers, i, cc.Pos(), entries)
			}
		}
		if workers > 0 {
			restored.Net.SetShardWorkers(workers)
		}
		got := runFingerprint(t, restored, cycles)
		restored.Net.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: state-restore run diverged: metric %d: got %d want %d", workers, i, got[i], want[i])
			}
		}
	}

	stateless := newSys(openChunkTraces(t, files, func(c *trace.ChunkReader) trace.Reader {
		return statelessReader{r: c}
	}))
	if err := stateless.RestoreWarmSnapshot(snap); err == nil {
		t.Fatal("RestoreWarmSnapshot into stateless readers accepted")
	}
	mustWarm(t, stateless, entries)
	if _, err := stateless.WarmSnapshot(); err == nil {
		t.Fatal("WarmSnapshot of stateless readers accepted")
	}
	got := runFingerprint(t, stateless, cycles)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("direct warmup after a refused restore diverged: metric %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestWarmRestoreFailureAfterWriteIsUnusable: tile 3 reads a chunked file
// of its generator's entries, so it refuses the generator position the
// checkpoint holds — but only after the caches are loaded. The system
// must then refuse every later use instead of running half restored.
func TestWarmRestoreFailureAfterWriteIsUnusable(t *testing.T) {
	l := core.NewBaseline(4, 4)
	src := newSystem(t, l, "SPECjbb")
	mustWarm(t, src, 300)
	snap, err := src.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	traces := benchTraces(t, "SPECjbb", l.Mesh.NumTerminals())
	files := chunkBenchFiles(t, "SPECjbb", 4, 1200)
	traces[3] = openChunkTraces(t, files[3:], func(c *trace.ChunkReader) trace.Reader { return c })[0]
	s, err := New(Config{Layout: l, Traces: traces})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreWarmSnapshot(snap); err == nil {
		t.Fatal("restore accepted a generator position for a chunked-file reader")
	}
	if err := s.Warmup(context.Background(), 300); err == nil {
		t.Error("Warmup accepted a half-restored system")
	}
	if err := s.Run(10); err == nil {
		t.Error("Run accepted a half-restored system")
	}
	if _, err := s.WarmSnapshot(); err == nil {
		t.Error("WarmSnapshot accepted a half-restored system")
	}
	if err := s.RestoreWarmSnapshot(snap); err == nil {
		t.Error("a second restore accepted a half-restored system")
	}
}
