// Package core implements the paper's contribution: the HeteroNoC
// heterogeneous mesh composed of small power-efficient routers and big
// high-performance routers, the six studied placements (Center, Row2_5,
// Diagonal — each with buffer-only or buffer+link redistribution), and the
// resource-conservation accounting behind Table 1 (constant total VC count,
// constant bisection bandwidth, 33% fewer buffer bits, network power and
// area below the homogeneous baseline).
package core

import (
	"fmt"
	"sort"
	"strings"

	"heteronoc/internal/noc"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// RouterClass identifies the three router designs of Table 1.
type RouterClass uint8

const (
	// ClassBaseline is the homogeneous router: 3 VCs/PC, 5-flit buffers,
	// 192-bit datapath.
	ClassBaseline RouterClass = iota
	// ClassSmall is the power-efficient router: 2 VCs/PC, 128-bit datapath.
	ClassSmall
	// ClassBig is the performance router: 6 VCs/PC, 256-bit datapath.
	ClassBig
)

func (c RouterClass) String() string {
	switch c {
	case ClassBaseline:
		return "baseline"
	case ClassSmall:
		return "small"
	case ClassBig:
		return "big"
	}
	return "?"
}

// ClassSpec is the published per-router design point (Table 1). PowerW is
// the router power at the 50% activity calibration point; the runtime power
// model scales components with simulated activity.
type ClassSpec struct {
	Class        RouterClass
	VCs          int
	BufDepth     int
	DatapathBits int // crossbar/link width
	BufferBits   int // buffer (flit) width
	PowerW       float64
	AreaMM2      float64
	FreqGHz      float64
}

// Specs returns the three Table 1 design points.
//
// Note the buffer width subtlety: in the +BL designs all buffers are
// 128-bit FIFOs (big routers only widen crossbar and links), which is what
// produces the paper's 33% buffer-bit reduction.
func Specs() map[RouterClass]ClassSpec {
	return map[RouterClass]ClassSpec{
		ClassBaseline: {Class: ClassBaseline, VCs: 3, BufDepth: 5, DatapathBits: 192, BufferBits: 192, PowerW: 0.67, AreaMM2: 0.290, FreqGHz: 2.20},
		ClassSmall:    {Class: ClassSmall, VCs: 2, BufDepth: 5, DatapathBits: 128, BufferBits: 128, PowerW: 0.30, AreaMM2: 0.235, FreqGHz: 2.25},
		ClassBig:      {Class: ClassBig, VCs: 6, BufDepth: 5, DatapathBits: 256, BufferBits: 128, PowerW: 1.19, AreaMM2: 0.425, FreqGHz: 2.07},
	}
}

// Placement names the big-router arrangements evaluated in the paper.
type Placement string

const (
	PlacementBaseline Placement = "Baseline"
	PlacementCenter   Placement = "Center"
	PlacementRow25    Placement = "Row2_5"
	PlacementDiagonal Placement = "Diagonal"
)

// Layout is a concrete HeteroNoC configuration: which routers are big and
// whether links are redistributed along with buffers.
type Layout struct {
	// Name is e.g. "Baseline", "Center+B", "Diagonal+BL".
	Name string
	// Mesh is the router grid (a mesh or torus).
	Mesh *topology.Mesh
	// Class holds the router class per router ID.
	Class []RouterClass
	// LinkRedist selects the +BL designs: 128-bit flits with wide (256-bit,
	// two-flit) links at big routers. Without it (+B) the network keeps the
	// baseline 192-bit links and only the VC counts differ.
	LinkRedist bool
}

// NewBaseline returns the homogeneous W x H mesh baseline.
func NewBaseline(w, h int) Layout {
	m := topology.NewMesh(w, h)
	cls := make([]RouterClass, m.NumRouters())
	return Layout{Name: "Baseline", Mesh: m, Class: cls}
}

// NewLayout builds one of the paper's placements on a W x H mesh. The
// number of big routers is 2N for an NxN mesh (16 on 8x8), chosen by the
// power inequality of Section 2 plus symmetry.
func NewLayout(p Placement, w, h int, linkRedist bool) Layout {
	if p == PlacementBaseline {
		return NewBaseline(w, h)
	}
	m := topology.NewMesh(w, h)
	l := Layout{Mesh: m, Class: make([]RouterClass, m.NumRouters()), LinkRedist: linkRedist}
	for i := range l.Class {
		l.Class[i] = ClassSmall
	}
	for _, r := range BigRouters(p, w, h) {
		l.Class[r] = ClassBig
	}
	suffix := "+B"
	if linkRedist {
		suffix = "+BL"
	}
	l.Name = string(p) + suffix
	return l
}

// BigRouters returns the big-router IDs for a placement on a W x H mesh.
func BigRouters(p Placement, w, h int) []int {
	m := topology.NewMesh(w, h)
	set := map[int]bool{}
	switch p {
	case PlacementCenter:
		// A centered block of 2*max(w,h) routers: on 8x8, the central 4x4.
		n := 2 * max(w, h)
		side := 1
		for side*side < n {
			side++
		}
		x0, y0 := (w-side)/2, (h-side)/2
		for y := y0; y < y0+side && len(set) < n; y++ {
			for x := x0; x < x0+side && len(set) < n; x++ {
				set[m.RouterAt(x, y)] = true
			}
		}
	case PlacementRow25:
		// Big routers fill the second and fifth rows (indices 1 and h-3 on
		// 8x8 — rows 1 and 4 as drawn in Figure 3(c)).
		r1, r2 := 1, 4
		if h != 8 {
			r1, r2 = h/4, 3*h/4
		}
		for x := 0; x < w; x++ {
			set[m.RouterAt(x, r1)] = true
			set[m.RouterAt(x, r2)] = true
		}
	case PlacementDiagonal:
		for i := 0; i < w && i < h; i++ {
			set[m.RouterAt(i, i)] = true
			set[m.RouterAt(w-1-i, i)] = true
		}
	default:
		return nil
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// NewCustom builds a layout from an explicit big-router set, used by the
// design-space exploration.
func NewCustom(name string, w, h int, big []int, linkRedist bool) Layout {
	m := topology.NewMesh(w, h)
	l := Layout{Name: name, Mesh: m, Class: make([]RouterClass, m.NumRouters()), LinkRedist: linkRedist}
	for i := range l.Class {
		l.Class[i] = ClassSmall
	}
	for _, r := range big {
		l.Class[r] = ClassBig
	}
	return l
}

// AllLayouts returns the seven configurations of Figure 3 for a W x H mesh.
func AllLayouts(w, h int) []Layout {
	return []Layout{
		NewBaseline(w, h),
		NewLayout(PlacementCenter, w, h, false),
		NewLayout(PlacementRow25, w, h, false),
		NewLayout(PlacementDiagonal, w, h, false),
		NewLayout(PlacementCenter, w, h, true),
		NewLayout(PlacementRow25, w, h, true),
		NewLayout(PlacementDiagonal, w, h, true),
	}
}

// IsHetero reports whether the layout contains non-baseline routers.
func (l Layout) IsHetero() bool {
	for _, c := range l.Class {
		if c != ClassBaseline {
			return true
		}
	}
	return false
}

// BigSet returns a per-router boolean mask of big routers.
func (l Layout) BigSet() []bool {
	out := make([]bool, len(l.Class))
	for i, c := range l.Class {
		out[i] = c == ClassBig
	}
	return out
}

// Counts returns the number of routers of each class.
func (l Layout) Counts() (baseline, small, big int) {
	for _, c := range l.Class {
		switch c {
		case ClassBaseline:
			baseline++
		case ClassSmall:
			small++
		case ClassBig:
			big++
		}
	}
	return
}

// FreqGHz returns the network clock: the paper runs heterogeneous networks
// at the worst-case (big router) frequency.
func (l Layout) FreqGHz() float64 {
	specs := Specs()
	f := specs[ClassBaseline].FreqGHz
	if l.IsHetero() {
		f = specs[ClassBig].FreqGHz
	}
	return f
}

// DataPacketFlits returns the flow-control flit count of the paper's
// 1024-bit cache-line packet: 6 in every layout.
//
// Modeling note (see DESIGN.md §6): the simulator follows the Orion-era
// abstraction the paper's results imply — the flit is the unit of flow
// control and buffering in both networks, link width enters performance
// through the slot count (a 256-bit wide link moves two flits per cycle,
// which is the paper's flit combining), and enters power through per-bit
// energies (128/192/256-bit datapaths). Under a strict bit-serial reading
// (8x128-bit flits over single-flit narrow links) the heterogeneous network
// would lose ~25% packet capacity on small-small links and could not
// reproduce the paper's throughput gains; the abstraction chosen here does
// reproduce them.
func (l Layout) DataPacketFlits() int { return 6 }

// RouterConfigs converts the layout into simulator router configurations.
func (l Layout) RouterConfigs() []noc.RouterConfig {
	var byClass [ClassBig + 1]noc.RouterConfig
	for c, s := range Specs() {
		byClass[c] = noc.RouterConfig{
			VCs:      s.VCs,
			BufDepth: s.BufDepth,
			Wide:     l.LinkRedist && c == ClassBig,
			// The split-datapath crossbar and dual output arbiters of
			// Section 3 come with the link redistribution: every router in
			// a +BL network has them (needed to source/merge combined
			// flits). +B routers get the SA upgrade without the split
			// datapath; baseline routers keep the classic allocator.
			SplitDatapath: l.LinkRedist && c != ClassBaseline,
			ImprovedSA:    c != ClassBaseline,
		}
	}
	out := make([]noc.RouterConfig, len(l.Class))
	for i, c := range l.Class {
		out[i] = byClass[c]
	}
	return out
}

// Network builds a simulator network for the layout with X-Y routing (or
// dateline X-Y on a torus).
func (l Layout) Network() (*noc.Network, error) {
	var alg routing.Algorithm
	if l.Mesh.Wrap() {
		alg = routing.NewTorusXY(l.Mesh)
	} else {
		alg = routing.NewXY(l.Mesh)
	}
	return l.NetworkWith(alg)
}

// NetworkWith builds a simulator network with a custom routing algorithm.
func (l Layout) NetworkWith(alg routing.Algorithm) (*noc.Network, error) {
	return noc.New(noc.Config{
		Topo:           l.Mesh,
		Routing:        alg,
		Routers:        l.RouterConfigs(),
		WatchdogCycles: 100000,
	})
}

// OnTorus re-bases the layout onto a torus of the same dimensions with the
// same router classes, for the Section 5.1.1 comparison.
func (l Layout) OnTorus() Layout {
	w, h := l.Mesh.Dims()
	t := l
	t.Mesh = topology.NewTorus(w, h)
	t.Name = l.Name + "(torus)"
	cls := make([]RouterClass, len(l.Class))
	copy(cls, l.Class)
	t.Class = cls
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Validate checks the layout invariants.
func (l Layout) Validate() error {
	if len(l.Class) != l.Mesh.NumRouters() {
		return fmt.Errorf("core: %d classes for %d routers", len(l.Class), l.Mesh.NumRouters())
	}
	base, small, big := l.Counts()
	if base > 0 && (small > 0 || big > 0) {
		return fmt.Errorf("core: layout %s mixes baseline with hetero classes", l.Name)
	}
	return nil
}

// Render draws the layout as an ASCII grid: 'B' big routers, 's' small,
// 'o' baseline — the Figure 3 diagrams in text form.
func (l Layout) Render() string {
	w, h := l.Mesh.Dims()
	var b []byte
	b = append(b, []byte(l.Name+" ("+l.Mesh.Name()+")\n")...)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := byte('o')
			switch l.Class[l.Mesh.RouterAt(x, y)] {
			case ClassBig:
				c = 'B'
			case ClassSmall:
				c = 's'
			}
			b = append(b, c, ' ')
		}
		b = append(b, '\n')
	}
	return string(b)
}

// LayoutByName resolves the Figure 3 configuration names
// ("Baseline", "Center+B", "Diagonal+BL", ...) case-insensitively.
func LayoutByName(name string, w, h int) (Layout, error) {
	if strings.EqualFold(name, "baseline") {
		return NewBaseline(w, h), nil
	}
	for _, p := range []Placement{PlacementCenter, PlacementRow25, PlacementDiagonal} {
		for _, bl := range []bool{false, true} {
			l := NewLayout(p, w, h, bl)
			if strings.EqualFold(l.Name, name) {
				return l, nil
			}
		}
	}
	return Layout{}, fmt.Errorf("core: unknown layout %q (want Baseline or {Center,Row2_5,Diagonal}+{B,BL})", name)
}
