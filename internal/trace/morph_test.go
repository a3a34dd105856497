package trace

import (
	"bytes"
	"testing"
)

// bareReader hides every optional capability of a Reader, forcing Morph
// down its non-stateful path.
type bareReader struct{ r Reader }

func (b *bareReader) Next() Entry { return b.r.Next() }

// morphPos is the entry count of a NewMorph result.
func morphPos(r Reader) int64 { return r.(interface{ Pos() int64 }).Pos() }

func TestMorphProfileScaling(t *testing.T) {
	p := Profile{Name: "x", FootprintLines: 1000, SharedLines: 100, SharedFrac: 0.3, Burst: 0.5, MeanGap: 20}
	got := MorphProfile(p, ProfileMorph{FootprintScale: 2, SharedScale: 2, BurstScale: 3, GapScale: 0.5})
	if got.FootprintLines != 2000 || got.SharedLines != 200 {
		t.Errorf("footprint scale: %d/%d", got.FootprintLines, got.SharedLines)
	}
	if got.SharedFrac != 0.6 {
		t.Errorf("SharedFrac %g", got.SharedFrac)
	}
	if got.Burst != 1.0 { // 0.5*3 clamps to 1
		t.Errorf("Burst %g not clamped", got.Burst)
	}
	if got.MeanGap != 10 {
		t.Errorf("MeanGap %g", got.MeanGap)
	}
	// Zero-valued morph is the identity.
	if id := MorphProfile(p, ProfileMorph{}); id != p {
		t.Errorf("zero morph changed profile: %+v", id)
	}
	// Scaling never drops a positive knob to zero.
	small := MorphProfile(Profile{FootprintLines: 3}, ProfileMorph{FootprintScale: 0.01})
	if small.FootprintLines != 1 {
		t.Errorf("FootprintLines %d, want floor of 1", small.FootprintLines)
	}
}

func TestMorphDeterminism(t *testing.T) {
	p, err := ProfileByName("TPC-C")
	if err != nil {
		t.Fatal(err)
	}
	spec := MorphSpec{HotspotFrac: 0.3, HotspotLines: 8, HotTile: 5, IncastFrac: 0.2, IncastMC: 1, IncastMCs: 4, GapScale: 0.7}
	// The same seeded morph over a Stateful source and over a bare one
	// must produce the identical stream (one class draw per entry either
	// way): the rewrite depends on the entries, never on the source type.
	one := NewMorph(NewGenerator(p, 2, 128), spec, 16, 128, 99)
	bare := NewMorph(&bareReader{r: NewGenerator(p, 2, 128)}, spec, 16, 128, 99)
	for i := 0; i < 512; i++ {
		if got, want := bare.Next(), one.Next(); got != want {
			t.Fatalf("entry %d: bare-source %+v != stateful-source %+v", i, got, want)
		}
	}
	if morphPos(one) != 512 || morphPos(bare) != 512 {
		t.Fatalf("Pos %d/%d, want 512", morphPos(one), morphPos(bare))
	}
}

func TestMorphHotspotTargeting(t *testing.T) {
	p, err := ProfileByName("TPC-C")
	if err != nil {
		t.Fatal(err)
	}
	const tiles, lineBytes, hot, lines = 16, 128, 7, 16
	m := NewMorph(NewGenerator(p, 0, lineBytes), MorphSpec{HotspotFrac: 1.0, HotspotLines: lines, HotTile: hot}, tiles, lineBytes, 1)
	for i := 0; i < 2000; i++ {
		e := m.Next()
		line := e.Addr / lineBytes
		if line%tiles != hot {
			t.Fatalf("entry %d: line %d homes at tile %d, want %d", i, line, line%tiles, hot)
		}
		if line/tiles >= lines {
			t.Fatalf("entry %d: line %d outside the %d-line hot set", i, line, lines)
		}
	}
	// A fractional hotspot leaves the rest of the stream untouched.
	frac := NewMorph(NewGenerator(p, 0, lineBytes), MorphSpec{HotspotFrac: 0.4, HotspotLines: lines, HotTile: hot}, tiles, lineBytes, 1)
	hits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		line := frac.Next().Addr / lineBytes
		if line%tiles == hot && line/tiles < lines {
			hits++
		}
	}
	if f := float64(hits) / n; f < 0.35 || f > 0.55 {
		t.Fatalf("hotspot fraction %.3f far from 0.40", f)
	}
}

func TestMorphIncastTargeting(t *testing.T) {
	p, err := ProfileByName("SPECjbb")
	if err != nil {
		t.Fatal(err)
	}
	const tiles, lineBytes, mc, mcs = 16, 128, 2, 4
	src := NewGenerator(p, 1, lineBytes)
	ref := NewGenerator(p, 1, lineBytes)
	m := NewMorph(src, MorphSpec{IncastFrac: 1.0, IncastMC: mc, IncastMCs: mcs}, tiles, lineBytes, 3)
	for i := 0; i < 2000; i++ {
		orig := ref.Next()
		e := m.Next()
		line, origLine := e.Addr/lineBytes, orig.Addr/lineBytes
		// The MC selector (line/tiles % mcs) must land on the target MC...
		if (line/tiles)%mcs != mc {
			t.Fatalf("entry %d: line %d selects MC %d, want %d", i, line, (line/tiles)%mcs, mc)
		}
		// ...while the home tile and the high address bits are preserved.
		if line%tiles != origLine%tiles {
			t.Fatalf("entry %d: home tile changed %d -> %d", i, origLine%tiles, line%tiles)
		}
		if line/(tiles*mcs) != origLine/(tiles*mcs) {
			t.Fatalf("entry %d: high bits changed %d -> %d", i, origLine/(tiles*mcs), line/(tiles*mcs))
		}
	}
}

func TestMorphStateful(t *testing.T) {
	p, err := ProfileByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	spec := MorphSpec{HotspotFrac: 0.5, HotspotLines: 4, HotTile: 3, GapScale: 0.9}
	m := NewMorph(NewGenerator(p, 0, 128), spec, 16, 128, 42).(Stateful)
	for i := 0; i < 333; i++ {
		m.Next()
	}
	state := m.SaveState()
	want := nextN(m, 200)

	fresh := NewMorph(NewGenerator(p, 0, 128), spec, 16, 128, 0).(Stateful) // seed overwritten by restore
	if err := fresh.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if morphPos(fresh) != 333 {
		t.Fatalf("Pos %d after restore, want 333", morphPos(fresh))
	}
	got := nextN(fresh, 200)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d after restore: %+v != %+v", i, got[i], want[i])
		}
	}
	if err := fresh.RestoreState(state[:10]); err == nil {
		t.Error("short state accepted")
	}

	// A morph over a source without position state has none either, so
	// a capability check refuses it before reading anything.
	bare := NewMorph(&bareReader{r: NewGenerator(p, 0, 128)}, spec, 16, 128, 42)
	if _, ok := bare.(Stateful); ok {
		t.Fatal("morph over a stateless source claims to be Stateful")
	}
}

func TestNewWorkloadReader(t *testing.T) {
	// Plain Table 2 profiles resolve to plain generators.
	r, err := NewWorkloadReader("TPC-C", 0, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*Generator); !ok {
		t.Fatalf("profile workload resolved to %T", r)
	}
	// Every adversarial name resolves.
	for _, name := range AdversarialNames() {
		if _, err := NewWorkloadReader(name, 0, 128, 16); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Spec-less workloads (profile morph only) skip the Morph wrapper.
	if r, _ := NewWorkloadReader("thrash", 0, 128, 16); r != nil {
		if _, ok := r.(*Generator); !ok {
			t.Fatalf("thrash resolved to %T, want bare generator", r)
		}
	}
	// Two workloads sharing a base profile still get distinct streams.
	a, _ := NewWorkloadReader("shared-storm", 0, 128, 16)
	b, _ := NewWorkloadReader("thrash", 0, 128, 16)
	same := true
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("shared-storm and thrash produce the same stream")
	}
	// The stream depends only on (name, core, lineBytes, tiles): two
	// constructions are bit-identical.
	x, _ := NewWorkloadReader("hotspot", 4, 128, 64)
	y, _ := NewWorkloadReader("hotspot", 4, 128, 64)
	for i := 0; i < 500; i++ {
		if ex, ey := x.Next(), y.Next(); ex != ey {
			t.Fatalf("entry %d: %+v != %+v", i, ex, ey)
		}
	}
	// Unknown names report both namespaces.
	_, err = NewWorkloadReader("nope", 0, 128, 16)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if s := err.Error(); !bytes.Contains([]byte(s), []byte("TPC-C")) || !bytes.Contains([]byte(s), []byte("mc-incast")) {
		t.Fatalf("error does not list namespaces: %v", err)
	}

	trs, err := WorkloadTraces("mc-incast", 16, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 16 {
		t.Fatalf("WorkloadTraces returned %d readers", len(trs))
	}
	// Per-core streams differ (the core index seeds each one).
	if trs[0].Next() == trs[1].Next() && trs[0].Next() == trs[1].Next() && trs[0].Next() == trs[1].Next() {
		t.Fatal("cores 0 and 1 look identical")
	}
}

func TestMorphGapScale(t *testing.T) {
	p, err := ProfileByName("TPC-C")
	if err != nil {
		t.Fatal(err)
	}
	ref := NewGenerator(p, 0, 128)
	m := NewMorph(NewGenerator(p, 0, 128), MorphSpec{GapScale: 0.5}, 16, 128, 7)
	for i := 0; i < 1000; i++ {
		orig, got := ref.Next(), m.Next()
		want := int(float64(orig.Gap)*0.5 + 0.5)
		if got.Gap != want {
			t.Fatalf("entry %d: gap %d, want %d (orig %d)", i, got.Gap, want, orig.Gap)
		}
		if got.Addr != orig.Addr || got.Write != orig.Write {
			t.Fatalf("entry %d: gap-only morph changed addr/write", i)
		}
	}
}
