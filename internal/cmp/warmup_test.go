package cmp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"heteronoc/internal/core"
	"heteronoc/internal/trace"
)

// mustWarm warms s on a context that never ends, where Warmup cannot fail.
func mustWarm(t testing.TB, s *System, entries int) {
	t.Helper()
	if err := s.Warmup(context.Background(), entries); err != nil {
		t.Fatal(err)
	}
}

// warmupRef is the sequential warmup the pipelined Warmup replaced: read
// one entry per core, replay it through the protocol's message drain,
// repeat. Warmup must leave every system, readers included, exactly where
// this leaves it. It returns the number of L2 recalls the warmup ran.
func warmupRef(s *System, entriesPerCore int) (recalls int64) {
	s.warmup = true
	lineBytes := uint64(s.cfg.LineBytes)
	for i := 0; i < entriesPerCore; i++ {
		for _, tile := range s.Tiles {
			e := s.cfg.Traces[tile.ID].Next()
			tile.L1.Access(e.Addr/lineBytes, e.Write, func() {})
			s.drainWarm()
		}
	}
	s.warmup = false
	s.warmedEntries += entriesPerCore
	for _, tile := range s.Tiles {
		recalls += tile.Home.Recalls
	}
	s.ResetStats()
	return recalls
}

// warmReaderKind builds a fresh reader set for n tiles; close releases
// whatever the readers hold.
type warmReaderKind struct {
	name  string
	build func(t *testing.T, n int) (readers []trace.Reader, close func())
}

func warmReaderKinds() []warmReaderKind {
	generators := func(build func(core int) trace.Reader) func(*testing.T, int) ([]trace.Reader, func()) {
		return func(_ *testing.T, n int) ([]trace.Reader, func()) {
			out := make([]trace.Reader, n)
			for i := range out {
				out[i] = build(i)
			}
			return out, func() {}
		}
	}
	workload := func(name string) func(*testing.T, int) ([]trace.Reader, func()) {
		return func(t *testing.T, n int) ([]trace.Reader, func()) {
			trs, err := trace.WorkloadTraces(name, n, 128)
			if err != nil {
				t.Fatal(err)
			}
			return trs, func() {}
		}
	}
	files := func(prefetch bool) func(*testing.T, int) ([]trace.Reader, func()) {
		return func(t *testing.T, n int) ([]trace.Reader, func()) {
			var crs []*trace.ChunkReader
			out := make([]trace.Reader, n)
			for i, data := range chunkBenchFiles(t, "canneal", n, 600) {
				cr, err := trace.NewChunkReader(bytes.NewReader(data), int64(len(data)), prefetch)
				if err != nil {
					t.Fatal(err)
				}
				crs = append(crs, cr)
				out[i] = cr
			}
			return out, func() {
				for _, cr := range crs {
					cr.Close()
				}
			}
		}
	}
	kinds := []warmReaderKind{
		{"libquantum", workload("libquantum")},
		{"ur", generators(func(c int) trace.Reader { return trace.NewURGenerator(c, 128) })},
		{"mc-incast", workload("mc-incast")},
		{"shared-storm", workload("shared-storm")},
		{"thrash", workload("thrash")},
		{"hntr2", files(false)},
		{"hntr2-prefetch", files(true)},
		// Tiles 0 and 1 draw from one generator: only the sequential
		// entry-major, tile-minor call order hands each the same entries.
		{"shared-instance", func(t *testing.T, n int) ([]trace.Reader, func()) {
			trs := benchTraces(t, "SPECjbb", n)
			trs[1] = trs[0]
			return trs, func() {}
		}},
	}
	// Then every other Table 2 profile and adversarial class.
	for _, name := range append(trace.Names(), trace.AdversarialNames()...) {
		if !slices.ContainsFunc(kinds, func(k warmReaderKind) bool { return k.name == name }) {
			kinds = append(kinds, warmReaderKind{name, workload(name)})
		}
	}
	return kinds
}

// TestWarmupPipelineMatchesReference runs the pipelined Warmup and
// warmupRef side by side and requires identical warm checkpoints and
// identical reader positions. Every reader kind (each Table 2 profile,
// each adversarial class, and the file, uniform-random and shared-reader
// kinds) runs on every mesh size, with the L1 prefetcher off (Warmup
// applies whole transactions) and on (Warmup drains messages); the entry
// counts (around the batch size) cycle across the cases, and each case
// runs at GOMAXPROCS 1 and 2. Those warmups never fill an L2 set, so one
// more case runs thrash on 2x2 long enough to recall.
func TestWarmupPipelineMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(16))
	type warmCase struct {
		kind         warmReaderKind
		dim, entries int
		recalls      bool // the warmup must recall
	}
	var cases []warmCase
	meshes := []int{2, 4, 8}
	counts := []int{0, 1, warmBatch - 1, warmBatch, warmBatch + 1, -1}
	for ki, kind := range warmReaderKinds() {
		for mi, dim := range meshes {
			entries := counts[(ki*len(meshes)+mi)%len(counts)]
			if entries < 0 { // a random count that is not a multiple of the batch
				entries = 2*warmBatch + 1 + rng.Intn(warmBatch-1)
			}
			rng.Intn(2) // keeps the random counts, and so the subtest names, stable
			cases = append(cases, warmCase{kind, dim, entries, false})
			if kind.name == "thrash" && dim == 2 {
				cases = append(cases, warmCase{kind, dim, 10000, true})
			}
		}
	}
	for _, c := range cases {
		for _, prefetch := range []bool{false, true} {
			for _, procs := range []int{1, 2} {
				name := fmt.Sprintf("%s/%dx%d/e=%d/pf=%t/procs=%d", c.kind.name, c.dim, c.dim, c.entries, prefetch, procs)
				t.Run(name, func(t *testing.T) {
					runtime.GOMAXPROCS(procs)
					recalls := warmupMatchesReference(t, c.kind, c.dim, c.entries, prefetch)
					if c.recalls {
						if recalls == 0 {
							t.Error("the warmup ran no L2 recall")
						}
						t.Logf("%d L2 recalls", recalls)
					}
				})
			}
		}
	}
}

// warmupMatchesReference warms two identical systems, one with Warmup and
// one with warmupRef, and compares their checkpoints and readers. It
// returns the number of recalls the reference ran.
func warmupMatchesReference(t *testing.T, kind warmReaderKind, dim, entries int, prefetch bool) int64 {
	build := func() (*System, func()) {
		trs, closeTrs := kind.build(t, dim*dim)
		s, err := New(Config{Layout: core.NewBaseline(dim, dim), Traces: trs, Prefetch: prefetch})
		if err != nil {
			t.Fatal(err)
		}
		return s, closeTrs
	}
	ref, closeRef := build()
	defer closeRef()
	got, closeGot := build()
	defer closeGot()
	recalls := warmupRef(ref, entries)
	mustWarm(t, got, entries)

	refSnap, err := ref.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := got.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSnap, gotSnap) {
		t.Fatalf("warm checkpoints differ (%d vs %d bytes)", len(gotSnap), len(refSnap))
	}
	// The readers must continue from the same place: draw a few more
	// entries from each, in tile order.
	for k := 0; k < 3; k++ {
		for tile := range ref.cfg.Traces {
			if r, g := ref.cfg.Traces[tile].Next(), got.cfg.Traces[tile].Next(); r != g {
				t.Fatalf("tile %d, entry %d after warmup: %+v, reference %+v", tile, k, g, r)
			}
		}
	}
	return recalls
}

// goroutinesBackTo fails t unless the goroutine count falls back to want
// within a second. A goroutine that Warmup has joined may still be
// running its exit, so the count is polled rather than read once.
func goroutinesBackTo(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines, %d before Warmup: the reader goroutine outlived it", runtime.NumGoroutine(), want)
			return
		}
	}
}

// panicAt panics on its k-th Next.
type panicAt struct {
	r    trace.Reader
	n, k int
}

func (p *panicAt) Next() trace.Entry {
	if p.n++; p.n == p.k {
		panic(fmt.Sprintf("reader failed at entry %d", p.k))
	}
	return p.r.Next()
}

// TestWarmupPipelineReaderPanic: a panic inside a reader surfaces on the
// goroutine that called Warmup, with its value intact, and the reader
// goroutine is gone by then.
func TestWarmupPipelineReaderPanic(t *testing.T) {
	l := core.NewBaseline(4, 4)
	trs := benchTraces(t, "SPECjbb", l.Mesh.NumTerminals())
	const k = 2*warmBatch + 7
	trs[5] = &panicAt{r: trs[5], k: k}
	s, err := New(Config{Layout: l, Traces: trs})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		s.Warmup(context.Background(), 4*warmBatch)
		return nil
	}()
	goroutinesBackTo(t, before)
	if want := fmt.Sprintf("reader failed at entry %d", k); got != want {
		t.Fatalf("Warmup panicked with %v, want %q", got, want)
	}
}

// cancelAt cancels a context on its k-th Next.
type cancelAt struct {
	r      trace.Reader
	n, k   int
	cancel context.CancelFunc
}

func (c *cancelAt) Next() trace.Entry {
	if c.n++; c.n == c.k {
		c.cancel()
	}
	return c.r.Next()
}

// TestWarmupPipelineCancel cancels an 8x8 warmup part way: Warmup returns
// the context's error without replaying the batch the cancellation
// landed in, the reader goroutine is gone, and the half-warm system
// refuses every later use.
func TestWarmupPipelineCancel(t *testing.T) {
	l := core.NewBaseline(8, 8)
	trs := benchTraces(t, "SPECjbb", l.Mesh.NumTerminals())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const k = 5*warmBatch + 10 // inside the sixth batch
	reader := &cancelAt{r: trs[5], k: k, cancel: cancel}
	trs[5] = reader
	s, err := New(Config{Layout: l, Traces: trs})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	err = s.Warmup(ctx, 40*warmBatch)
	goroutinesBackTo(t, before)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Warmup returned %v, want context.Canceled", err)
	}
	// The reader stage stops within the buffers already in flight. (Under
	// -race, reading n here also catches a reader stage still running.)
	if reader.n < k || reader.n > k+warmBuffers*warmBatch {
		t.Errorf("tile 5's reader served %d entries; want %d to %d", reader.n, k, k+warmBuffers*warmBatch)
	}
	// Every replayed entry was an L1 hit or miss, and whole batches ran.
	for _, tile := range s.Tiles {
		replayed := tile.L1.Hits + tile.L1.Misses
		if replayed%warmBatch != 0 || replayed > (k-1)/warmBatch*warmBatch {
			t.Fatalf("tile %d replayed %d entries; want whole batches that stop before the one holding entry %d", tile.ID, replayed, k)
		}
	}
	if _, err := s.WarmSnapshot(); err == nil {
		t.Error("WarmSnapshot accepted a system whose warmup was cancelled")
	}
	if err := s.RunCtx(context.Background(), 10); err == nil {
		t.Error("RunCtx accepted a system whose warmup was cancelled")
	}
	if err := s.Warmup(context.Background(), 1); err == nil {
		t.Error("Warmup accepted a system whose warmup was cancelled")
	}
	src := newSystem(t, l, "SPECjbb")
	mustWarm(t, src, 10)
	snap, err := src.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreWarmSnapshot(snap); err == nil {
		t.Error("RestoreWarmSnapshot accepted a system whose warmup was cancelled")
	}
}
