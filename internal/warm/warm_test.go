package warm

import (
	"bytes"
	"context"
	"testing"

	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/runcache"
	"heteronoc/internal/trace"
)

const (
	testBench   = "SPECjbb"
	testEntries = 300
)

// testTraces returns the bench's standard readers for a 4x4 system with
// tile 3's reader passed through swap.
func testTraces(t *testing.T, swap func(trace.Reader) trace.Reader) []trace.Reader {
	t.Helper()
	trs, err := trace.WorkloadTraces(testBench, 16, 128)
	if err != nil {
		t.Fatal(err)
	}
	trs[3] = swap(trs[3])
	return trs
}

func newTestSystem(t *testing.T, trs []trace.Reader) *cmp.System {
	t.Helper()
	s, err := cmp.New(cmp.Config{Layout: core.NewBaseline(4, 4), Traces: trs})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chunkedCopy records n entries of r into an in-memory chunked trace file
// and opens it: the same entries, from a reader whose position state is an
// entry index rather than a generator register.
func chunkedCopy(t *testing.T, r trace.Reader, n int) trace.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.RecordChunked(&buf, r, n, 256); err != nil {
		t.Fatal(err)
	}
	cr, err := trace.NewChunkReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), false)
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// nextOnly hides every capability of a reader except Next, so it has no
// position state.
type nextOnly struct{ r trace.Reader }

func (n nextOnly) Next() trace.Entry { return n.r.Next() }

func resetShared(t *testing.T) {
	runcache.Reset()
	ResetStats()
	t.Cleanup(func() {
		runcache.Reset()
		ResetStats()
	})
}

// TestSystemRefusesHalfRestoredTarget: the shared checkpoint holds a
// generator position for tile 3, which a chunked-file reader refuses only
// after the caches have been loaded. System must then report an error,
// not warm the half-restored system a second time.
func TestSystemRefusesHalfRestoredTarget(t *testing.T) {
	resetShared(t)
	s := newTestSystem(t, testTraces(t, func(r trace.Reader) trace.Reader {
		return chunkedCopy(t, r, 4*testEntries)
	}))
	l := core.NewBaseline(4, 4)
	if err := System(context.Background(), s, l, testBench, testEntries); err == nil {
		t.Fatal("System accepted a target whose restore failed after loading its caches")
	}
	if err := s.Run(10); err == nil {
		t.Fatal("half-restored system still runs")
	}
	if restored, fellBack := Stats(); restored != 0 || fellBack != 0 {
		t.Fatalf("stats %d restored / %d fallbacks, want 0/0", restored, fellBack)
	}
}

// TestSystemWarmsStatelessTargetDirectly: a target with a reader that has
// no position state is refused before any write and warmed directly, to
// the state a direct warmup reaches.
func TestSystemWarmsStatelessTargetDirectly(t *testing.T) {
	resetShared(t)
	l := core.NewBaseline(4, 4)
	hide := func(r trace.Reader) trace.Reader { return nextOnly{r} }

	shared := newTestSystem(t, testTraces(t, hide))
	if err := System(context.Background(), shared, l, testBench, testEntries); err != nil {
		t.Fatal(err)
	}
	if restored, fellBack := Stats(); restored != 0 || fellBack != 1 {
		t.Fatalf("stats %d restored / %d fallbacks, want 0/1", restored, fellBack)
	}

	direct := newTestSystem(t, testTraces(t, hide))
	if err := direct.Warmup(context.Background(), testEntries); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*cmp.System{shared, direct} {
		if err := s.Run(2000); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := shared.NetStats().Fingerprint(), direct.NetStats().Fingerprint(); a != b {
		t.Fatalf("network fingerprint %016x after the fallback, %016x after a direct warmup", a, b)
	}
}
