// Package trace generates the synthetic per-core memory traces that stand
// in for the paper's Simics-collected commercial and PARSEC workloads (see
// DESIGN.md §4 for the substitution rationale). Each benchmark is a
// parameterized profile — memory intensity, working-set size, read/write
// mix, sharing degree, spatial locality, burstiness — with fixed seeds so
// every run of every experiment sees the same instruction stream.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Entry is one trace record: Gap non-memory instructions followed by one
// memory operation.
type Entry struct {
	Gap   int
	Addr  uint64
	Write bool
}

// Reader produces an endless instruction stream.
type Reader interface {
	Next() Entry
}

// BatchReader is a Reader that can decode many entries per call. NextBatch
// fills out and returns how many entries were produced — always len(out)
// for generators (endless streams), possibly fewer at the end of a file.
// The caller owns out; implementations must not retain it, so steady-state
// consumption is allocation-free on both sides.
type BatchReader interface {
	Reader
	NextBatch(out []Entry) int
}

// Stateful is a Reader whose complete position — RNG register, address
// walk, file offset — can be captured and restored in O(1), without
// replaying the stream. cmp warm checkpoints store every reader's
// position this way; a reader that is not Stateful cannot be
// checkpointed, and warms directly instead.
type Stateful interface {
	Reader
	// SaveState returns an opaque snapshot of the reader's position.
	SaveState() []byte
	// RestoreState repositions the reader to a SaveState snapshot. After a
	// successful restore the stream continues exactly as it would have on
	// the original reader.
	RestoreState(state []byte) error
}

// Seeker is a Reader addressable by entry index: SeekTo(n) leaves the
// reader positioned as if n entries had been consumed since the start.
// File-backed readers implement this with one index lookup + one chunk
// decode (see ChunkReader); generators generally cannot (their position
// is RNG state, not an index) and implement Stateful instead.
type Seeker interface {
	Reader
	// Pos returns the number of entries consumed so far.
	Pos() int64
	// Seek repositions to just after entry n-1 (SeekTo(0) rewinds).
	SeekTo(n int64) error
}

// Profile parameterizes a synthetic benchmark.
type Profile struct {
	Name string
	// MeanGap is the average number of non-memory instructions between
	// memory operations (lower = more memory bound).
	MeanGap float64
	// FootprintLines is the per-core working set in cache lines.
	FootprintLines int
	// SharedFrac is the fraction of accesses that touch the globally
	// shared region (driving coherence traffic).
	SharedFrac float64
	// SharedLines is the size of the shared region in lines.
	SharedLines int
	// WriteFrac is the fraction of memory operations that are stores.
	WriteFrac float64
	// Locality is the probability that the next access stays on the same
	// or adjacent line (spatial locality / streaming).
	Locality float64
	// Burst is the probability of a zero-gap follow-on access (memory-level
	// parallelism bursts).
	Burst float64
	// HotFrac concentrates this fraction of shared accesses on a small
	// hot set (lock/metadata contention).
	HotFrac float64
}

// Profiles returns the benchmark suite of Table 2: four commercial
// workloads, six PARSEC applications/kernels, and libquantum for the
// asymmetric-CMP study. Parameters are chosen to mimic each workload's
// published character (memory intensity, sharing, burstiness); absolute
// IPCs are not meaningful, homo-vs-hetero deltas are.
func Profiles() []Profile {
	return []Profile{
		// Commercial server workloads: large footprints, heavy sharing.
		{Name: "SAP", MeanGap: 6, FootprintLines: 3000, SharedFrac: 0.35, SharedLines: 1500, WriteFrac: 0.30, Locality: 0.75, Burst: 0.35, HotFrac: 0.02},
		{Name: "SPECjbb", MeanGap: 7, FootprintLines: 2500, SharedFrac: 0.30, SharedLines: 1200, WriteFrac: 0.28, Locality: 0.78, Burst: 0.30, HotFrac: 0.02},
		{Name: "TPC-C", MeanGap: 5, FootprintLines: 4000, SharedFrac: 0.40, SharedLines: 2000, WriteFrac: 0.35, Locality: 0.70, Burst: 0.40, HotFrac: 0.03},
		{Name: "SJAS", MeanGap: 7, FootprintLines: 2800, SharedFrac: 0.32, SharedLines: 1400, WriteFrac: 0.30, Locality: 0.76, Burst: 0.32, HotFrac: 0.02},
		// PARSEC applications.
		{Name: "ferret", MeanGap: 9, FootprintLines: 2000, SharedFrac: 0.25, SharedLines: 1000, WriteFrac: 0.22, Locality: 0.82, Burst: 0.25, HotFrac: 0.02},
		{Name: "facesim", MeanGap: 10, FootprintLines: 2200, SharedFrac: 0.18, SharedLines: 800, WriteFrac: 0.25, Locality: 0.84, Burst: 0.22, HotFrac: 0.015},
		{Name: "vips", MeanGap: 11, FootprintLines: 1800, SharedFrac: 0.15, SharedLines: 600, WriteFrac: 0.24, Locality: 0.85, Burst: 0.20, HotFrac: 0.01},
		// PARSEC kernels.
		{Name: "canneal", MeanGap: 6, FootprintLines: 5000, SharedFrac: 0.45, SharedLines: 2500, WriteFrac: 0.26, Locality: 0.55, Burst: 0.30, HotFrac: 0.01},
		{Name: "dedup", MeanGap: 8, FootprintLines: 3000, SharedFrac: 0.30, SharedLines: 1400, WriteFrac: 0.32, Locality: 0.78, Burst: 0.28, HotFrac: 0.02},
		{Name: "streamcluster", MeanGap: 7, FootprintLines: 2500, SharedFrac: 0.35, SharedLines: 1200, WriteFrac: 0.18, Locality: 0.86, Burst: 0.35, HotFrac: 0.02},
		// Latency-sensitive single-threaded benchmark for Section 7: very
		// regular streaming with low MLP.
		{Name: "libquantum", MeanGap: 4, FootprintLines: 8000, SharedFrac: 0.0, SharedLines: 0, WriteFrac: 0.25, Locality: 0.88, Burst: 0.10, HotFrac: 0},
	}
}

// ProfileByName finds a profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// Names lists the profile names in suite order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// CommercialNames returns the four commercial workloads (Figure 12(a)).
func CommercialNames() []string { return []string{"SAP", "SPECjbb", "TPC-C", "SJAS"} }

// PARSECNames returns the six PARSEC workloads (Figure 12(b)).
func PARSECNames() []string {
	return []string{"ferret", "facesim", "vips", "canneal", "dedup", "streamcluster"}
}

// Fig11Names returns the six workloads shown in the Figure 11 breakdowns.
func Fig11Names() []string {
	return []string{"SAP", "SPECjbb", "ferret", "vips", "dedup", "streamcluster"}
}

// Generator is a deterministic synthetic trace for one core. Its RNG is
// an lfgSource — stream-identical to the math/rand source it historically
// used (TestLFGMatchesMathRand), but with a serializable register, which
// makes the whole generator Stateful: SaveState/RestoreState capture the
// exact stream position in O(1).
type Generator struct {
	p    Profile
	core int
	src  *lfgSource
	// address regions, in line units
	sharedBase  uint64
	privateBase uint64
	hotLines    int
	lastLine    uint64
	lineBytes   uint64
	pos         int64
}

// NewGenerator builds the trace source for one core of a benchmark. The
// address space layout: a shared region at 0, then per-core private
// regions, all in units of lineBytes.
func NewGenerator(p Profile, core int, lineBytes int) *Generator {
	return NewGeneratorAt(p, core, lineBytes, 0)
}

// NewGeneratorAt places the benchmark's whole address space at baseLine
// (in line units). Mixed-workload runs (the asymmetric-CMP study) must
// give each program a disjoint base or their synthetic "private" regions
// would alias across programs.
func NewGeneratorAt(p Profile, core int, lineBytes int, baseLine uint64) *Generator {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", p.Name, core)
	g := &Generator{
		p:         p,
		core:      core,
		src:       newLFG(int64(h.Sum64() & 0x7fffffffffffffff)),
		lineBytes: uint64(lineBytes),
	}
	g.sharedBase = baseLine
	g.privateBase = baseLine + uint64(p.SharedLines) + uint64(core)*uint64(p.FootprintLines)
	g.hotLines = p.SharedLines / 20
	if g.hotLines < 1 {
		g.hotLines = 1
	}
	g.lastLine = g.privateBase
	return g
}

// Next produces the next trace entry.
func (g *Generator) Next() Entry {
	g.pos++
	e := Entry{Write: g.src.float64() < g.p.WriteFrac}
	if g.src.float64() >= g.p.Burst {
		// Geometric gap with the profile's mean.
		if g.p.MeanGap > 0 {
			pStop := 1 / (1 + g.p.MeanGap)
			for g.src.float64() > pStop {
				e.Gap++
			}
		}
	}
	var line uint64
	switch {
	case g.src.float64() < g.p.Locality:
		// Spatial locality: mostly the same line, sometimes the next one
		// (streaming), wrapped so the walk stays inside its region
		// (private footprint or shared region).
		line = g.lastLine
		if g.src.float64() < 0.35 {
			line++
		}
		if g.lastLine >= g.privateBase {
			line = g.privateBase + (line-g.privateBase)%uint64(g.p.FootprintLines)
		} else if g.p.SharedLines > 0 {
			line = g.sharedBase + (line-g.sharedBase)%uint64(g.p.SharedLines)
		}
	case g.p.SharedFrac > 0 && g.src.float64() < g.p.SharedFrac:
		if g.p.HotFrac > 0 && g.src.float64() < g.p.HotFrac {
			line = g.sharedBase + uint64(g.src.intn(g.hotLines))
		} else {
			line = g.sharedBase + uint64(g.src.intn(g.p.SharedLines))
		}
	default:
		line = g.privateBase + uint64(g.src.intn(g.p.FootprintLines))
	}
	g.lastLine = line
	e.Addr = line * g.lineBytes
	return e
}

// NextBatch fills out with the next len(out) entries (generators never
// run dry) — the bulk API that amortizes per-entry interface dispatch for
// recording and morphing pipelines.
func (g *Generator) NextBatch(out []Entry) int {
	for i := range out {
		out[i] = g.Next()
	}
	return len(out)
}

// Pos returns the number of entries generated so far.
func (g *Generator) Pos() int64 { return g.pos }

// genStateVersion tags Generator state snapshots.
const genStateVersion = 1

// SaveState captures the generator's exact stream position: the RNG
// register plus the spatial-locality walk state. O(1) in the stream
// position (the register is a fixed ~4.9KB).
func (g *Generator) SaveState() []byte {
	dst := make([]byte, 0, 1+8+8+lfgStateLen)
	dst = append(dst, genStateVersion)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.pos))
	dst = binary.LittleEndian.AppendUint64(dst, g.lastLine)
	return g.src.saveTo(dst)
}

// RestoreState repositions the generator to a SaveState snapshot taken
// from a generator with the same construction parameters.
func (g *Generator) RestoreState(state []byte) error {
	if len(state) < 1+8+8 || state[0] != genStateVersion {
		return fmt.Errorf("trace: bad generator state (len %d)", len(state))
	}
	pos := int64(binary.LittleEndian.Uint64(state[1:9]))
	lastLine := binary.LittleEndian.Uint64(state[9:17])
	rest, ok := g.src.loadFrom(state[17:])
	if !ok || len(rest) != 0 {
		return fmt.Errorf("trace: bad generator RNG state (len %d)", len(state))
	}
	g.pos = pos
	g.lastLine = lastLine
	return nil
}

// URGenerator is the closed-loop uniform-random workload of the
// memory-controller case study: each access targets a uniformly random
// line in a 2^30-line span, so in any realistic run effectively every
// access is a cold miss and becomes a memory request. (Repeats are
// possible — birthday collisions appear after tens of thousands of draws
// — but rare enough that the occasional cache hit does not change the
// study's character.)
type URGenerator struct {
	src       *lfgSource
	next      uint64
	core      int
	span      uint64
	lineBytes uint64
}

// NewURGenerator builds the UR workload for one core: a uniform random
// walk over a per-core 2^30-line region (tagged by core in bits 40+, so
// cores never alias each other).
func NewURGenerator(core int, lineBytes int) *URGenerator {
	return &URGenerator{
		src:       newLFG(int64(core)*7919 + 17),
		core:      core,
		span:      1 << 30,
		lineBytes: uint64(lineBytes),
	}
}

// Next returns the next uniform-random read. The fixed Gap of 2 models a
// thin compute strand between accesses; it keeps the workload closed-loop
// (MSHR-limited) rather than literally back-to-back.
func (g *URGenerator) Next() Entry {
	g.next++
	line := (uint64(g.src.Int63()) % g.span) | (uint64(g.core) << 40)
	return Entry{Gap: 2, Addr: line * g.lineBytes, Write: false}
}

// NextBatch fills out (generators never run dry).
func (g *URGenerator) NextBatch(out []Entry) int {
	for i := range out {
		out[i] = g.Next()
	}
	return len(out)
}

// Pos returns the number of entries generated so far.
func (g *URGenerator) Pos() int64 { return int64(g.next) }

// urStateVersion tags URGenerator state snapshots.
const urStateVersion = 2

// SaveState captures the exact stream position (RNG register + count).
func (g *URGenerator) SaveState() []byte {
	dst := make([]byte, 0, 1+8+lfgStateLen)
	dst = append(dst, urStateVersion)
	dst = binary.LittleEndian.AppendUint64(dst, g.next)
	return g.src.saveTo(dst)
}

// RestoreState repositions the generator to a SaveState snapshot.
func (g *URGenerator) RestoreState(state []byte) error {
	if len(state) < 1+8 || state[0] != urStateVersion {
		return fmt.Errorf("trace: bad UR generator state (len %d)", len(state))
	}
	next := binary.LittleEndian.Uint64(state[1:9])
	rest, ok := g.src.loadFrom(state[9:])
	if !ok || len(rest) != 0 {
		return fmt.Errorf("trace: bad UR generator RNG state (len %d)", len(state))
	}
	g.next = next
	return nil
}
