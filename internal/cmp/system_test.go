package cmp

import (
	"testing"

	"heteronoc/internal/cmp/cache"
	"heteronoc/internal/core"
	"heteronoc/internal/trace"
)

// benchTraces builds per-core trace readers for a benchmark.
func benchTraces(t testing.TB, name string, n int) []trace.Reader {
	t.Helper()
	p, err := trace.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]trace.Reader, n)
	for i := range out {
		out[i] = trace.NewGenerator(p, i, 128)
	}
	return out
}

func newSystem(t *testing.T, l core.Layout, bench string) *System {
	t.Helper()
	s, err := New(Config{
		Layout: l,
		Traces: benchTraces(t, bench, l.Mesh.NumTerminals()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSystemRunsAndCommits(t *testing.T) {
	s := newSystem(t, core.NewBaseline(8, 8), "SPECjbb")
	if err := s.Run(4000); err != nil {
		t.Fatal(err)
	}
	if s.AvgIPC() <= 0 {
		t.Fatal("no instructions committed")
	}
	var insts int64
	for _, tile := range s.Tiles {
		insts += tile.Core.Insts
		if tile.Core.Cycles != 4000 {
			t.Fatalf("core %d ran %d cycles", tile.ID, tile.Core.Cycles)
		}
	}
	if insts == 0 {
		t.Fatal("zero total instructions")
	}
	if s.NetStats().PacketsInjected == 0 {
		t.Error("no network traffic generated")
	}
	rtt := s.MissRTT()
	if rtt.N() == 0 {
		t.Error("no miss round trips measured")
	}
}

func TestSystemOnHeteroNoC(t *testing.T) {
	s := newSystem(t, core.NewLayout(core.PlacementDiagonal, 8, 8, true), "SAP")
	if err := s.Run(4000); err != nil {
		t.Fatal(err)
	}
	if s.AvgIPC() <= 0 {
		t.Fatal("no progress on HeteroNoC")
	}
}

func TestCoherenceInvariantUnderFullSystem(t *testing.T) {
	s := newSystem(t, core.NewBaseline(8, 8), "TPC-C")
	for step := 0; step < 8; step++ {
		if err := s.Run(500); err != nil {
			t.Fatal(err)
		}
		// Single-writer invariant across all L1s on a sample of lines.
		type holder struct{ owners, holders int }
		lines := map[uint64]*holder{}
		for _, tile := range s.Tiles {
			for line := uint64(0); line < 64; line++ {
				if st, ok := tile.L1.HasLine(line); ok {
					h := lines[line]
					if h == nil {
						h = &holder{}
						lines[line] = h
					}
					h.holders++
					if st == cache.Exclusive || st == cache.Modified {
						h.owners++
					}
				}
			}
		}
		for line, h := range lines {
			if h.owners > 1 {
				t.Fatalf("line %#x has %d owners", line, h.owners)
			}
			if h.owners == 1 && h.holders > 1 {
				t.Fatalf("line %#x owned with %d holders", line, h.holders)
			}
		}
	}
}

func TestMemoryControllersSeeTraffic(t *testing.T) {
	s := newSystem(t, core.NewBaseline(8, 8), "canneal")
	if err := s.Run(6000); err != nil {
		t.Fatal(err)
	}
	var reads int64
	for _, mc := range s.MCs {
		reads += mc.Reads
	}
	if reads == 0 {
		t.Fatal("no DRAM reads (footprint should exceed L2)")
	}
	mcl := s.MCReqLatency
	if mcl.N() == 0 {
		t.Error("no MC request latencies sampled")
	}
}

func TestMCPlacementConfigurable(t *testing.T) {
	l := core.NewBaseline(8, 8)
	s, err := New(Config{
		Layout:  l,
		Traces:  benchTraces(t, "canneal", 64),
		MCTiles: []int{27, 28, 35, 36},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(4000); err != nil {
		t.Fatal(err)
	}
	for _, tl := range []int{27, 28, 35, 36} {
		if s.MCs[tl] == nil {
			t.Fatalf("no controller at tile %d", tl)
		}
	}
}

func TestSmallCoreSlowerThanLarge(t *testing.T) {
	l := core.NewBaseline(8, 8)
	run := func(cc CoreConfig) float64 {
		s, err := New(Config{
			Layout: l,
			Traces: benchTraces(t, "SPECjbb", 64),
			Cores:  []CoreConfig{cc},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(4000); err != nil {
			t.Fatal(err)
		}
		return s.AvgIPC()
	}
	large := run(LargeCore())
	small := run(SmallCore())
	if small >= large {
		t.Errorf("small-core IPC %.3f not below large-core %.3f", small, large)
	}
}

func TestDeterministicIPC(t *testing.T) {
	run := func() float64 {
		s := newSystem(t, core.NewBaseline(8, 8), "dedup")
		if err := s.Run(2500); err != nil {
			t.Fatal(err)
		}
		return s.AvgIPC()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic IPC: %v vs %v", a, b)
	}
}

func TestMixedCoreConfigValidation(t *testing.T) {
	l := core.NewBaseline(8, 8)
	_, err := New(Config{
		Layout: l,
		Traces: benchTraces(t, "SAP", 64),
		Cores:  make([]CoreConfig, 3),
	})
	if err == nil {
		t.Error("bad core config count accepted")
	}
	_, err = New(Config{Layout: l, Traces: nil})
	if err == nil {
		t.Error("missing traces accepted")
	}
}
