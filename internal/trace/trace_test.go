package trace

import (
	"bytes"
	"testing"
)

func TestProfilesComplete(t *testing.T) {
	if len(Profiles()) != 11 {
		t.Fatalf("%d profiles, want 11 (4 commercial + 6 PARSEC + libquantum)", len(Profiles()))
	}
	if len(CommercialNames()) != 4 || len(PARSECNames()) != 6 {
		t.Error("suite name lists wrong")
	}
	for _, n := range append(CommercialNames(), PARSECNames()...) {
		if _, err := ProfileByName(n); err != nil {
			t.Errorf("missing profile %s", n)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p, _ := ProfileByName("SAP")
	a := NewGenerator(p, 3, 128)
	b := NewGenerator(p, 3, 128)
	for i := 0; i < 1000; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("entry %d differs: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestGeneratorsDifferAcrossCores(t *testing.T) {
	p, _ := ProfileByName("SAP")
	a := NewGenerator(p, 0, 128)
	b := NewGenerator(p, 1, 128)
	same := 0
	for i := 0; i < 200; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 20 {
		t.Errorf("cores produced %d/200 identical entries", same)
	}
}

func TestMeanGapRoughlyMatchesProfile(t *testing.T) {
	p, _ := ProfileByName("vips") // MeanGap 11, Burst 0.20
	g := NewGenerator(p, 0, 128)
	total := 0
	const n = 50000
	for i := 0; i < n; i++ {
		total += g.Next().Gap
	}
	mean := float64(total) / n
	want := p.MeanGap * (1 - p.Burst)
	if mean < want*0.9 || mean > want*1.1 {
		t.Errorf("mean gap %.2f, want ~%.2f", mean, want)
	}
}

func TestWriteFraction(t *testing.T) {
	p, _ := ProfileByName("TPC-C")
	g := NewGenerator(p, 0, 128)
	writes := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < p.WriteFrac-0.02 || frac > p.WriteFrac+0.02 {
		t.Errorf("write fraction %.3f, want ~%.2f", frac, p.WriteFrac)
	}
}

func TestSharedRegionAccessed(t *testing.T) {
	p, _ := ProfileByName("canneal")
	g0 := NewGenerator(p, 0, 128)
	g1 := NewGenerator(p, 1, 128)
	lines0 := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		lines0[g0.Next().Addr/128] = true
	}
	sharedHits := 0
	for i := 0; i < 20000; i++ {
		if lines0[g1.Next().Addr/128] {
			sharedHits++
		}
	}
	if sharedHits == 0 {
		t.Error("no cross-core line overlap for a sharing-heavy benchmark")
	}
}

func TestPrivateRegionsDisjoint(t *testing.T) {
	p, _ := ProfileByName("libquantum") // SharedFrac 0: purely private
	g0 := NewGenerator(p, 0, 128)
	g1 := NewGenerator(p, 1, 128)
	lines0 := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		lines0[g0.Next().Addr/128] = true
	}
	for i := 0; i < 5000; i++ {
		if lines0[g1.Next().Addr/128] {
			t.Fatal("private footprints overlap")
		}
	}
}

func TestAddressesLineAligned(t *testing.T) {
	p, _ := ProfileByName("SPECjbb")
	g := NewGenerator(p, 2, 128)
	for i := 0; i < 1000; i++ {
		if e := g.Next(); e.Addr%128 != 0 {
			t.Fatalf("unaligned address %#x", e.Addr)
		}
	}
}

func TestURGeneratorColdMisses(t *testing.T) {
	g := NewURGenerator(0, 128)
	seen := map[uint64]bool{}
	dups := 0
	for i := 0; i < 20000; i++ {
		a := g.Next().Addr
		if seen[a] {
			dups++
		}
		seen[a] = true
	}
	if dups > 10 {
		t.Errorf("%d duplicate addresses in UR stream", dups)
	}
}

func TestURGeneratorsDisjointAcrossCores(t *testing.T) {
	a, b := NewURGenerator(0, 128), NewURGenerator(1, 128)
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		seen[a.Next().Addr] = true
	}
	for i := 0; i < 5000; i++ {
		if seen[b.Next().Addr] {
			t.Fatal("UR address spaces overlap across cores")
		}
	}
}

func TestSummarizeMatchesProfile(t *testing.T) {
	p, _ := ProfileByName("TPC-C")
	st := Summarize(NewGenerator(p, 0, 128), 40000)
	if st.Entries != 40000 {
		t.Fatalf("entries %d", st.Entries)
	}
	if f := st.WriteFrac(); f < p.WriteFrac-0.03 || f > p.WriteFrac+0.03 {
		t.Errorf("write frac %.3f, want ~%.2f", f, p.WriteFrac)
	}
	if st.LocalityFrac() < 0.4 {
		t.Errorf("locality %.3f suspiciously low for TPC-C", st.LocalityFrac())
	}
	if st.DistinctLines < 1000 {
		t.Errorf("distinct lines %d too few", st.DistinctLines)
	}
	if st.MeanGap() <= 0 {
		t.Error("mean gap must be positive")
	}
}

func TestSummarizeFileUnbounded(t *testing.T) {
	p, _ := ProfileByName("vips")
	var buf bytes.Buffer
	if err := RecordChunked(&buf, NewGenerator(p, 1, 128), 2500, 0); err != nil {
		t.Fatal(err)
	}
	r, err := NewChunkReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), false)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(r, 0)
	if st.Entries != 2500 {
		t.Errorf("file summary entries %d, want 2500", st.Entries)
	}
}
