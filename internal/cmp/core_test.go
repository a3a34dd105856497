package cmp

import (
	"testing"

	"heteronoc/internal/cmp/cache"
	"heteronoc/internal/cmp/coherence"
	"heteronoc/internal/trace"
)

// scriptTrace replays a fixed list of entries, then repeats the last one.
type scriptTrace struct {
	entries []trace.Entry
	i       int
}

func (s *scriptTrace) Next() trace.Entry {
	if s.i < len(s.entries) {
		e := s.entries[s.i]
		s.i++
		return e
	}
	return s.entries[len(s.entries)-1]
}

// Core takes *coherence.L1 concretely, so exercise it through a real L1
// with a synchronous transport instead for hit-path tests, and through the
// system tests for miss paths. Here we focus on the gap/width mechanics
// using an always-hitting L1.
type nullTransport struct{ out []coherence.Msg }

func (n *nullTransport) Send(m coherence.Msg, after int64) { n.out = append(n.out, m) }

func alwaysHitL1(t *testing.T) *coherence.L1 {
	t.Helper()
	c := cache.New[bool](cache.Config{SizeBytes: 64 * 1024, Ways: 4, LineBytes: 128})
	// Pre-fill lines 0..63 in Modified so loads and stores both hit.
	for l := uint64(0); l < 64; l++ {
		c.Insert(l, cache.Modified, false)
	}
	return coherence.NewL1(0, c, &nullTransport{}, func(uint64) int { return 0 })
}

func TestCoreWidthLimitsIPC(t *testing.T) {
	// Pure compute trace (huge gaps): IPC must track the width.
	for _, width := range []int{1, 3} {
		clock := int64(0)
		tr := &scriptTrace{entries: []trace.Entry{{Gap: 1 << 20, Addr: 0}}}
		core := NewCore(0, CoreConfig{Width: width, Window: 64}, tr, alwaysHitL1(t), &clock, func(a uint64) uint64 { return a / 128 })
		for i := 0; i < 1000; i++ {
			clock++
			core.Step()
		}
		got := core.IPC()
		if got < float64(width)-0.1 || got > float64(width)+0.01 {
			t.Errorf("width %d: IPC = %.2f", width, got)
		}
	}
}

func TestCoreHitsCommitMemops(t *testing.T) {
	clock := int64(0)
	tr := &scriptTrace{entries: []trace.Entry{{Gap: 0, Addr: 0}}}
	core := NewCore(0, CoreConfig{Width: 1, Window: 8}, tr, alwaysHitL1(t), &clock, func(a uint64) uint64 { return a / 128 })
	for i := 0; i < 100; i++ {
		clock++
		core.Step()
	}
	if core.Insts == 0 {
		t.Fatal("no memops committed on hits")
	}
	if core.IPC() < 0.9 {
		t.Errorf("hit-only IPC %.2f, want ~1", core.IPC())
	}
}

func TestCoreHitDelayStallsInOrder(t *testing.T) {
	clock := int64(0)
	tr := &scriptTrace{entries: []trace.Entry{{Gap: 0, Addr: 0}}}
	core := NewCore(0, CoreConfig{Width: 1, Window: 8, L1HitDelay: 1}, tr, alwaysHitL1(t), &clock, func(a uint64) uint64 { return a / 128 })
	for i := 0; i < 100; i++ {
		clock++
		core.Step()
	}
	// Each memop costs 1 issue cycle + 1 hit-delay cycle: IPC ~0.5.
	if core.IPC() > 0.6 || core.IPC() < 0.4 {
		t.Errorf("in-order hit IPC %.2f, want ~0.5", core.IPC())
	}
}

func TestSmallVsLargeCoreConfigs(t *testing.T) {
	l := LargeCore()
	s := SmallCore()
	if l.Width <= s.Width || l.Window <= s.Window {
		t.Error("large core must be wider with a larger window")
	}
	if s.L1HitDelay == 0 {
		t.Error("small in-order core should pay L1 hit latency")
	}
}

// blackholeL1 is backed by a transport that never answers: every miss
// stays outstanding forever, exposing the window and MSHR limits.
func blackholeL1(t *testing.T) *coherence.L1 {
	t.Helper()
	c := cache.New[bool](cache.Config{SizeBytes: 8 * 1024, Ways: 2, LineBytes: 128})
	return coherence.NewL1(0, c, &nullTransport{}, func(uint64) int { return 1 })
}

func TestCoreWindowBoundsRunahead(t *testing.T) {
	clock := int64(0)
	// Every entry is a memory op to a fresh line: all miss, none return.
	addr := uint64(0)
	tr := readerFunc(func() trace.Entry {
		addr += 128
		return trace.Entry{Gap: 2, Addr: addr}
	})
	const window = 12
	core := NewCore(0, CoreConfig{Width: 3, Window: window}, tr, blackholeL1(t), &clock, func(a uint64) uint64 { return a / 128 })
	for i := 0; i < 500; i++ {
		clock++
		core.Step()
	}
	// With no fills, the core can commit at most `window` instructions
	// past the first miss (plus the gap before it).
	if core.Insts > window+4 {
		t.Errorf("core ran %d instructions ahead of an unresolved miss (window %d)", core.Insts, window)
	}
	if len(core.outstanding) == 0 {
		t.Error("no outstanding misses recorded")
	}
	if core.StallCycles == 0 {
		t.Error("no stalls recorded despite a blocked window")
	}
}

// readerFunc adapts a closure to trace.Reader.
type readerFunc func() trace.Entry

func (f readerFunc) Next() trace.Entry { return f() }

func TestCoreMSHRLimitBoundsMisses(t *testing.T) {
	clock := int64(0)
	addr := uint64(0)
	tr := readerFunc(func() trace.Entry {
		addr += 128
		return trace.Entry{Gap: 0, Addr: addr}
	})
	l1 := blackholeL1(t)
	l1.MaxMSHR = 4
	core := NewCore(0, CoreConfig{Width: 3, Window: 1 << 20}, tr, l1, &clock, func(a uint64) uint64 { return a / 128 })
	for i := 0; i < 200; i++ {
		clock++
		core.Step()
	}
	if l1.Outstanding() > 4 {
		t.Errorf("outstanding misses %d exceed the MSHR limit", l1.Outstanding())
	}
}
