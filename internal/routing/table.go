package routing

import (
	"heteronoc/internal/topology"
)

// VC class conventions for TableXY (see the package comment): escape
// packets drain on the reserved VC 0 under X-Y routing; table-routed
// packets are confined to the non-escape VCs; background X-Y packets may
// use any VC because dimension-ordered routing cannot deadlock.
const (
	classEscape = 0
	classTable  = 1
	classAnyXY  = 2
)

// TableXY implements the asymmetric-CMP routing of Section 7: packets whose
// source or destination terminal is flagged (attached to a large core)
// follow precomputed minimal zig-zag paths that maximize the number of big
// routers visited, while all other packets use plain X-Y. Because the
// zig-zag paths take turns in both orders they are not deadlock free on
// their own; a reserved escape VC (VC 0, X-Y routed) provides the
// deadlock-free drain required by the paper's "reserved escape VCs in the
// big routers".
type TableXY struct {
	xy          *XY
	flagged     []bool
	escapeAfter int
	// paths holds the zig-zag tables: on a fault-free mesh shortest paths
	// are exactly the minimal-direction paths, with ties resolved toward
	// big routers.
	paths minimalPaths
}

// TableXYConfig parameterizes table construction.
type TableXYConfig struct {
	// Flagged marks the terminals whose flows are table routed.
	Flagged []int
	// Big marks big routers by router ID; among minimal paths the table
	// prefers the ones that visit the most big routers.
	Big []bool
	// EscapeThreshold is the VA starvation limit in cycles before a packet
	// is diverted to the escape network (default 64).
	EscapeThreshold int
}

// NewTableXY builds the routing tables: fault-free shortest paths over the
// mesh, which resolve ties toward big routers and yield the X-Y-X-Y
// staircases of the paper's Figure 14(a).
func NewTableXY(t *topology.Mesh, cfg TableXYConfig) *TableXY {
	if t.Wrap() {
		panic("routing: TableXY requires a mesh, not a torus")
	}
	ta := &TableXY{
		xy:          NewXY(t),
		flagged:     make([]bool, t.NumTerminals()),
		escapeAfter: escapeThreshold(cfg.EscapeThreshold),
		paths:       newMinimalPaths(t, cfg.Big),
	}
	ta.paths.build(nil)
	for _, f := range cfg.Flagged {
		ta.flagged[f] = true
	}
	return ta
}

func (ta *TableXY) Name() string      { return "table+xy" }
func (ta *TableXY) NumVCClasses() int { return 3 }

func (ta *TableXY) InitialClass(src, dst int) int {
	if ta.flagged[src] || ta.flagged[dst] {
		return classTable
	}
	return classAnyXY
}

func (ta *TableXY) ClassVCs(class, numVCs int) (int, int) {
	switch class {
	case classEscape:
		return 0, 1
	case classTable:
		if numVCs == 1 {
			return 0, 1
		}
		return 1, numVCs
	default:
		return 0, numVCs
	}
}

func (ta *TableXY) NextHop(r, src, dst, class int) Decision {
	if class == classTable {
		return Decision{OutPort: ta.paths.hop(r, dst), VCClass: classTable}
	}
	d := ta.xy.NextHop(r, src, dst, 0)
	d.VCClass = class
	return d
}

// EscapeHop diverts a starved packet to the X-Y-routed escape VC.
func (ta *TableXY) EscapeHop(r, src, dst int) Decision {
	d := ta.xy.NextHop(r, src, dst, 0)
	d.VCClass = classEscape
	return d
}

// EscapeThreshold returns the VA starvation limit in cycles.
func (ta *TableXY) EscapeThreshold() int { return ta.escapeAfter }

// PathRouters returns the sequence of routers a table-routed packet visits
// from terminal src to terminal dst, for tests and path diagnostics.
func (ta *TableXY) PathRouters(src, dst int) []int { return ta.paths.pathRouters(src, dst) }
