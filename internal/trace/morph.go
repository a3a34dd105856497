package trace

// Trace morphing: derive new workloads from existing trace streams
// instead of writing new generators. Two layers compose:
//
//   - MorphProfile scales a synthetic Profile's knobs (footprint,
//     sharing, burstiness, memory intensity) before generation — cheap,
//     and the result is just another Profile.
//   - Morph wraps ANY Reader — synthetic generator or recorded file —
//     and rewrites the entry stream itself: redirecting a fraction of
//     accesses onto a tiny hot line set homed at one tile (directory
//     hotspot), or remapping addresses so they all select one memory
//     controller (MC incast), the two adversarial classes a
//     heterogeneous placement is supposed to absorb.
//
// The named adversarial workloads built from these (AdversarialWorkloads)
// resolve through NewWorkloadReader exactly like Table 2 profiles, so
// every call site that accepts a benchmark name — cmd/experiments,
// nocserved requests, the DSE — accepts "hotspot" or "mc-incast" too.

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// splitmix64 is the morph layer's own RNG: one uint64 of state, so a
// Morph's exact position is trivially serializable (unlike math/rand,
// whose 607-word register needs the lfgSource treatment). Constants are
// the standard SplitMix64 ones (Steele et al., "Fast splittable
// pseudorandom number generators").
type splitmix64 struct{ s uint64 }

func (r *splitmix64) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0,1).
func (r *splitmix64) float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ProfileMorph scales a Profile's knobs. Zero-valued fields leave the
// corresponding knob unchanged (a scale of exactly 1 is also a no-op).
type ProfileMorph struct {
	// FootprintScale multiplies FootprintLines and SharedLines.
	FootprintScale float64
	// SharedScale multiplies SharedFrac (clamped to [0,1]).
	SharedScale float64
	// BurstScale multiplies Burst (clamped to [0,1]).
	BurstScale float64
	// GapScale multiplies MeanGap: <1 is more memory-bound.
	GapScale float64
}

// MorphProfile applies m to p. The name is left alone; callers that
// register the result as a distinct workload rename it themselves.
func MorphProfile(p Profile, m ProfileMorph) Profile {
	scaleInt := func(v int, s float64) int {
		if s == 0 {
			return v
		}
		n := int(float64(v)*s + 0.5)
		if n < 1 && v > 0 {
			n = 1
		}
		return n
	}
	clamp01 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	p.FootprintLines = scaleInt(p.FootprintLines, m.FootprintScale)
	p.SharedLines = scaleInt(p.SharedLines, m.FootprintScale)
	if m.SharedScale != 0 {
		p.SharedFrac = clamp01(p.SharedFrac * m.SharedScale)
	}
	if m.BurstScale != 0 {
		p.Burst = clamp01(p.Burst * m.BurstScale)
	}
	if m.GapScale != 0 {
		p.MeanGap *= m.GapScale
	}
	return p
}

// MorphSpec is the stream-level rewrite applied by Morph. Fractions are
// per entry; an entry hits at most one rewrite class (hotspot is drawn
// before incast from a single uniform draw, so the classes partition the
// probability space deterministically).
type MorphSpec struct {
	// HotspotFrac redirects this fraction of accesses onto a hot set of
	// HotspotLines cache lines, all of which are homed at tile HotTile
	// (line % tiles == HotTile) — a directory/network hotspot.
	HotspotFrac  float64
	HotspotLines int
	HotTile      int

	// IncastFrac remaps this fraction of accesses so the memory
	// controller selector (line/tiles) % IncastMCs lands on IncastMC,
	// while the home tile (line % tiles) and the high address bits are
	// preserved — memory traffic converges on one MC.
	IncastFrac float64
	IncastMC   int
	IncastMCs  int

	// GapScale multiplies each entry's gap (deterministic rounding);
	// <1 compresses compute, raising injection pressure. 0 = unchanged.
	GapScale float64
}

// isZero reports a no-op spec.
func (m MorphSpec) isZero() bool {
	return m.HotspotFrac == 0 && m.IncastFrac == 0 && (m.GapScale == 0 || m.GapScale == 1)
}

// Morph rewrites the entries of an underlying Reader per a MorphSpec.
// It passes BatchReader through (morphing in place on the batch) and is
// Stateful whenever the source is: its own state is the single splitmix64
// word, concatenated with the source's snapshot.
type Morph struct {
	src       Reader
	spec      MorphSpec
	rng       splitmix64
	tiles     uint64
	lineBytes uint64
	pos       int64
}

// NewMorph wraps src. tiles is the home-tile modulus of the target CMP
// (the line→tile mapping is line % tiles); lineBytes must match the
// source's address granularity; seed fixes the rewrite decisions.
func NewMorph(src Reader, spec MorphSpec, tiles, lineBytes int, seed uint64) *Morph {
	return &Morph{
		src:       src,
		spec:      spec,
		rng:       splitmix64{s: seed},
		tiles:     uint64(tiles),
		lineBytes: uint64(lineBytes),
	}
}

// morph rewrites one entry, consuming exactly one uniform draw for the
// class decision (plus one more only on the hotspot branch).
func (m *Morph) morph(e Entry) Entry {
	if s := m.spec.GapScale; s != 0 && s != 1 {
		e.Gap = int(float64(e.Gap)*s + 0.5)
	}
	u := m.rng.float64()
	switch {
	case u < m.spec.HotspotFrac:
		k := m.rng.Uint64() % uint64(m.spec.HotspotLines)
		line := k*m.tiles + uint64(m.spec.HotTile)
		e.Addr = line * m.lineBytes
	case u < m.spec.HotspotFrac+m.spec.IncastFrac:
		nm := m.tiles * uint64(m.spec.IncastMCs)
		line := e.Addr / m.lineBytes
		line = (line/nm)*nm + uint64(m.spec.IncastMC)*m.tiles + line%m.tiles
		e.Addr = line * m.lineBytes
	}
	return e
}

// Next implements Reader.
func (m *Morph) Next() Entry {
	m.pos++
	return m.morph(m.src.Next())
}

// NextBatch implements BatchReader: the source fills the batch (bulk
// path when it supports one), then the rewrite runs in place.
func (m *Morph) NextBatch(out []Entry) int {
	var n int
	if br, ok := m.src.(BatchReader); ok {
		n = br.NextBatch(out)
	} else {
		for i := range out {
			out[i] = m.src.Next()
		}
		n = len(out)
	}
	for i := 0; i < n; i++ {
		out[i] = m.morph(out[i])
	}
	m.pos += int64(n)
	return n
}

// Pos returns the number of entries produced so far.
func (m *Morph) Pos() int64 { return m.pos }

// morphStateVersion tags Morph state snapshots.
const morphStateVersion = 1

// SaveState captures the morph RNG word plus the source's snapshot. It
// returns nil when the source is not Stateful: such a morph has no
// position state, and cmp.WarmSnapshot refuses it.
func (m *Morph) SaveState() []byte {
	st, ok := m.src.(Stateful)
	if !ok {
		return nil
	}
	dst := make([]byte, 0, 1+8+8)
	dst = append(dst, morphStateVersion)
	dst = appendU64(dst, m.rng.s)
	dst = appendU64(dst, uint64(m.pos))
	return append(dst, st.SaveState()...)
}

// RestoreState repositions the morph and its source.
func (m *Morph) RestoreState(state []byte) error {
	st, ok := m.src.(Stateful)
	if !ok {
		return fmt.Errorf("trace: morph source is not stateful")
	}
	if len(state) < 1+8+8 || state[0] != morphStateVersion {
		return fmt.Errorf("trace: bad morph state (len %d)", len(state))
	}
	if err := st.RestoreState(state[17:]); err != nil {
		return err
	}
	m.rng.s = readU64(state[1:9])
	m.pos = int64(readU64(state[9:17]))
	return nil
}

func appendU64(dst []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

func readU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Workload names an adversarial trace class: a base profile, optional
// profile-knob scaling, and an optional stream rewrite.
type Workload struct {
	Name string
	Desc string
	// Base is the Table 2 profile the workload morphs.
	Base   string
	PMorph ProfileMorph
	Spec   MorphSpec
	// hotTileCenter marks specs whose HotTile should be resolved to the
	// mesh-center tile at construction time (it depends on the CMP size).
	hotTileCenter bool
}

// AdversarialWorkloads returns the synthesized stress workloads. The
// incast spec assumes the default 4-controller (corner) memory placement;
// under other placements it still concentrates on mcTiles[0], only less
// sharply.
func AdversarialWorkloads() []Workload {
	return []Workload{
		{
			Name: "hotspot", Base: "TPC-C",
			Desc:          "TPC-C with 40% of accesses redirected to 16 lines homed at the mesh center (directory hotspot)",
			Spec:          MorphSpec{HotspotFrac: 0.40, HotspotLines: 16},
			hotTileCenter: true,
		},
		{
			Name: "mc-incast", Base: "SPECjbb",
			Desc: "SPECjbb with 75% of accesses remapped onto memory controller 0 (MC incast)",
			Spec: MorphSpec{IncastFrac: 0.75, IncastMC: 0, IncastMCs: 4},
		},
		{
			Name: "shared-storm", Base: "canneal",
			Desc:   "canneal with doubled sharing and 1.6x burstiness (coherence storm)",
			PMorph: ProfileMorph{SharedScale: 2.0, BurstScale: 1.6},
		},
		{
			Name: "thrash", Base: "canneal",
			Desc:   "canneal with an 8x footprint at half the gap (capacity thrash, memory-bound)",
			PMorph: ProfileMorph{FootprintScale: 8, GapScale: 0.5},
		},
	}
}

// AdversarialNames lists the adversarial workload names in registry order.
func AdversarialNames() []string {
	ws := AdversarialWorkloads()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// WorkloadByName finds an adversarial workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range AdversarialWorkloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// NewWorkloadReader resolves a workload name — a Table 2 profile or an
// adversarial class — to one core's trace reader for a tiles-core CMP.
// Like the plain generators, the stream depends only on (name, core,
// lineBytes, tiles), never on layout or memory placement, so warm-state
// sharing across layouts stays sound.
func NewWorkloadReader(name string, core, lineBytes, tiles int) (Reader, error) {
	w, ok := WorkloadByName(name)
	if !ok {
		p, err := ProfileByName(name)
		if err != nil {
			return nil, fmt.Errorf("trace: unknown workload %q (profiles: %s; adversarial: %s)",
				name, strings.Join(Names(), ", "), strings.Join(AdversarialNames(), ", "))
		}
		return NewGenerator(p, core, lineBytes), nil
	}
	p, err := ProfileByName(w.Base)
	if err != nil {
		return nil, err
	}
	p = MorphProfile(p, w.PMorph)
	// The workload name seeds the generator, so each adversarial class
	// has its own stream even when two share a base profile.
	p.Name = w.Name
	g := NewGenerator(p, core, lineBytes)
	if w.Spec.isZero() {
		return g, nil
	}
	spec := w.Spec
	if w.hotTileCenter {
		spec.HotTile = tiles / 2
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "morph/%s/%d", w.Name, core)
	return NewMorph(g, spec, tiles, lineBytes, h.Sum64()), nil
}

// WorkloadTraces builds the per-core readers for a whole CMP.
func WorkloadTraces(name string, tiles, lineBytes int) ([]Reader, error) {
	out := make([]Reader, tiles)
	for i := range out {
		r, err := NewWorkloadReader(name, i, lineBytes, tiles)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
