package cmp

import (
	"bytes"
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

// statelessReader hides every capability except Next, forcing the
// restore path that replays the recorded entry count — the control the
// state-restore path must match bit for bit.
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
// fingerprints bit-identical to a direct warmup AND to the forced-replay
// control, with sharded ticking at 0, 1 and GOMAXPROCS workers.
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

		// Forced-replay control: same checkpoint, readers stripped to bare
		// Next. Must land on the identical stream position and fingerprint.
		control := newSys(openChunkTraces(t, files, func(c *trace.ChunkReader) trace.Reader {
			return statelessReader{r: c}
		}))
		if err := control.RestoreWarmSnapshot(snap); err != nil {
			t.Fatalf("workers=%d control: %v", workers, err)
		}
		if workers > 0 {
			control.Net.SetShardWorkers(workers)
		}
		cgot := runFingerprint(t, control, cycles)
		control.Net.Close()
		for i := range want {
			if cgot[i] != want[i] {
				t.Fatalf("workers=%d: replay-control run diverged: metric %d: got %d want %d", workers, i, cgot[i], want[i])
			}
		}
	}
}
