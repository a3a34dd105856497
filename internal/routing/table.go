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
	topo    *topology.Mesh
	xy      *XY
	flagged []bool
	big     []bool
	// next[dst][router] is the output port toward terminal dst on the
	// zig-zag network.
	next [][]int
	// escapeAfter is the VC-allocation starvation threshold in cycles.
	escapeAfter int
}

// TableXYConfig parameterizes table construction.
type TableXYConfig struct {
	// Flagged marks the terminals whose flows are table routed.
	Flagged []int
	// Big marks big routers by router ID; links arriving at a big router
	// are discounted so minimal paths prefer them.
	Big []bool
	// EscapeThreshold is the VA starvation limit in cycles before a packet
	// is diverted to the escape network (default 64).
	EscapeThreshold int
}

// NewTableXY builds the routing tables with one analytic pass per
// destination over minimal-direction edges: hop layers are Manhattan
// distances, and among minimal paths ties resolve toward big routers
// (deterministically, matching the Dijkstra construction this replaces),
// yielding the X-Y-X-Y staircases of the paper's Figure 14(a). The whole
// build is O(V) per destination with no per-destination allocations — all
// tables share one arena and the layer scratch is reused across passes.
func NewTableXY(t *topology.Mesh, cfg TableXYConfig) *TableXY {
	if t.Wrap() {
		panic("routing: TableXY requires a mesh, not a torus")
	}
	ta := &TableXY{
		topo:        t,
		xy:          NewXY(t),
		flagged:     make([]bool, t.NumTerminals()),
		big:         cfg.Big,
		escapeAfter: cfg.EscapeThreshold,
	}
	if ta.escapeAfter <= 0 {
		ta.escapeAfter = 64
	}
	if ta.big == nil {
		ta.big = make([]bool, t.NumRouters())
	}
	for _, f := range cfg.Flagged {
		ta.flagged[f] = true
	}
	n := t.NumRouters()
	terms := t.NumTerminals()
	arena := make([]int, n*terms)
	ta.next = make([][]int, terms)
	scratch := newMinimalScratch(t)
	for dst := 0; dst < terms; dst++ {
		ta.next[dst] = arena[dst*n : (dst+1)*n : (dst+1)*n]
		scratch.buildDst(ta.big, dst, ta.next[dst])
	}
	return ta
}

const (
	hopCost     = 10
	bigDiscount = 4 // a hop landing on a big router costs hopCost-bigDiscount
)

// minimalScratch holds the reusable per-destination state for the analytic
// minimal-path table construction. One Dijkstra per destination over the
// minimal-direction graph is equivalent to, and replaced by, two O(V)
// passes:
//
//  1. Every minimal-direction path from u to dstR has exactly
//     Manhattan(u, dstR) hops, so the hop layer h(u) is known in closed
//     form and a counting sort orders routers by layer.
//  2. With edge cost hopCost - bigDiscount*big[r], the Dijkstra distance is
//     hopCost*h(u) - bigDiscount*b(u), where b(u) is the maximum number of
//     big routers on any minimal path after u (including the destination).
//     b satisfies the layer-ordered recurrence b(u) = max over minimal
//     out-edges u->r of b(r)+big(r), and the port Dijkstra would record is
//     the argmax with ties broken by smaller b(r), then smaller router ID —
//     exactly the order the heap pops equal-distance entries.
type minimalScratch struct {
	mesh  *topology.Mesh
	w, ht int
	h     []int32 // hop layer per router (Manhattan distance to dstR)
	b     []int32 // max big-routers-after count over minimal paths
	order []int32 // routers sorted by layer (counting sort)
	cnt   []int32 // per-layer counters for the sort
}

func newMinimalScratch(t *topology.Mesh) *minimalScratch {
	w, ht := t.Dims()
	n := t.NumRouters()
	return &minimalScratch{
		mesh:  t,
		w:     w,
		ht:    ht,
		h:     make([]int32, n),
		b:     make([]int32, n),
		order: make([]int32, n),
		cnt:   make([]int32, w+ht),
	}
}

// buildDst fills next[u] with the output port toward terminal dst for every
// router u (-1 at the destination router itself), bit-identical to the
// Dijkstra construction it replaces.
func (ms *minimalScratch) buildDst(big []bool, dst int, next []int) {
	dstR, _ := ms.mesh.TerminalRouter(dst)
	dx, dy := dstR%ms.w, dstR/ms.w
	n := len(next)
	// Layer assignment + counting sort by layer.
	for i := range ms.cnt {
		ms.cnt[i] = 0
	}
	for u := 0; u < n; u++ {
		d := absInt32(int32(u%ms.w-dx)) + absInt32(int32(u/ms.w-dy))
		ms.h[u] = d
		ms.cnt[d]++
	}
	pos := int32(0)
	for i := range ms.cnt {
		c := ms.cnt[i]
		ms.cnt[i] = pos
		pos += c
	}
	for u := 0; u < n; u++ {
		ms.order[ms.cnt[ms.h[u]]] = int32(u)
		ms.cnt[ms.h[u]]++
	}
	// Layer-ordered DP: each router picks the best minimal-direction
	// neighbor one layer in. At most two candidates exist (one per
	// dimension still unresolved).
	next[dstR] = -1
	ms.b[dstR] = 0
	for qi := 1; qi < n; qi++ {
		u := int(ms.order[qi])
		ux, uy := u%ms.w, u/ms.w
		bestKey, bestB := int32(-1), int32(-1)
		bestR, bestPort := n, -1
		try := func(r, port int) {
			kb := ms.b[r]
			if big[r] {
				kb++
			}
			if kb > bestKey || (kb == bestKey && (ms.b[r] > bestB || (ms.b[r] == bestB && r < bestR))) {
				bestKey, bestB, bestR, bestPort = kb, ms.b[r], r, port
			}
		}
		if ux < dx {
			try(u+1, topology.PortEast)
		} else if ux > dx {
			try(u-1, topology.PortWest)
		}
		if uy < dy {
			try(u+ms.w, topology.PortSouth)
		} else if uy > dy {
			try(u-ms.w, topology.PortNorth)
		}
		ms.b[u] = bestKey
		next[u] = bestPort
	}
}

func absInt32(a int32) int32 {
	if a < 0 {
		return -a
	}
	return a
}

// minimalToward reports whether moving from router u to adjacent router v
// reduces the Manhattan distance to dstR.
func (ta *TableXY) minimalToward(u, v, dstR int) bool {
	ux, uy := ta.topo.Coord(u)
	vx, vy := ta.topo.Coord(v)
	dx, dy := ta.topo.Coord(dstR)
	return abs(vx-dx)+abs(vy-dy) < abs(ux-dx)+abs(uy-dy)
}

func opposite(p int) int {
	switch p {
	case topology.PortEast:
		return topology.PortWest
	case topology.PortWest:
		return topology.PortEast
	case topology.PortNorth:
		return topology.PortSouth
	case topology.PortSouth:
		return topology.PortNorth
	}
	panic("routing: opposite of non-direction port")
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
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
	if class != classTable {
		d := ta.xy.NextHop(r, src, dst, 0)
		d.VCClass = class
		return d
	}
	dstR, dstP := ta.topo.TerminalRouter(dst)
	if r == dstR {
		return Decision{OutPort: dstP, VCClass: classTable}
	}
	port := ta.next[dst][r]
	if port < 0 {
		// Unreachable via minimal graph (cannot happen on a mesh); fall
		// back to X-Y to stay safe.
		d := ta.xy.NextHop(r, src, dst, 0)
		d.VCClass = classTable
		return d
	}
	return Decision{OutPort: port, VCClass: classTable}
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
func (ta *TableXY) PathRouters(src, dst int) []int {
	r, _ := ta.topo.TerminalRouter(src)
	dstR, _ := ta.topo.TerminalRouter(dst)
	path := []int{r}
	for r != dstR {
		d := ta.NextHop(r, src, dst, classTable)
		link, ok := ta.topo.Neighbor(r, d.OutPort)
		if !ok {
			break
		}
		r = link.Router
		path = append(path, r)
		if len(path) > ta.topo.NumRouters() {
			break // defensive: malformed table
		}
	}
	return path
}
