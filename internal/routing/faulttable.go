package routing

import (
	"errors"
	"fmt"

	"heteronoc/internal/topology"
)

// ErrUnreachable reports that no live path exists between two terminals
// after link/router failures. Callers (the NI reliability layer, the
// experiments) surface it instead of letting packets hang in the network.
var ErrUnreachable = errors.New("routing: destination unreachable")

// FaultAware is implemented by algorithms that can route around failed
// links. The simulator calls Rebuild after applying each permanent fault;
// NextHop then never selects a dead port, and destinations severed from a
// source are reported via Reachable/RouteError rather than by wedging.
type FaultAware interface {
	Algorithm
	// Rebuild recomputes all routes over the live links in ls. A nil ls
	// restores the fault-free routes.
	Rebuild(ls *topology.LinkState)
	// Reachable reports whether a live path exists from terminal src to
	// terminal dst.
	Reachable(src, dst int) bool
	// RouteError returns nil when dst is reachable from src and an error
	// wrapping ErrUnreachable otherwise.
	RouteError(src, dst int) error
}

// FaultTable is table-based routing that survives link and router
// failures. Primary paths are per-destination shortest paths over the live
// links (big routers break ties, so on HeteroNoC layouts equal-length
// paths gravitate to the wide diagonal routers); because they take
// turns in both orders they are not deadlock free on their own, so a
// reserved escape VC (VC 0) drains starved packets over a spanning forest
// of the live links. Paths restricted to a tree ascend toward the root and
// then descend, which admits no cyclic channel dependency, so the escape
// sub-network stays deadlock free no matter which links have died.
//
// When a permanent fault partitions the network, NextHop returns a
// decision with OutPort < 0 for severed destinations and Reachable reports
// false; the simulator drops such packets with a stat instead of hanging.
type FaultTable struct {
	minimalPaths
	escapeAfter int
	ls          *topology.LinkState
	// allUp is the fault-free link state Rebuild(nil) routes over.
	allUp *topology.LinkState
	// tree[dst][router] is the output port toward terminal dst restricted
	// to the escape spanning forest, -1 when unreachable.
	tree [][]int16

	// The escape forest, rooted: every component of the live-link graph is
	// a BFS tree rooted at its lowest-numbered live router, and tree tables
	// are derived from the parent pointers in O(V) per destination (the
	// ancestors of the destination route down the destination's root path,
	// everyone else routes to its parent).
	parent     []int32 // parent router, -1 at roots
	parentPort []int16 // port on u toward its parent
	parentFar  []int16 // port on the parent toward u
	comp       []int32 // component root, -1 while fail-stopped
	stamp      []int64 // generation stamp marking the current root path
	down       []int16 // port toward the destination, valid where stamped
	stampGen   int64
}

// FaultTableConfig parameterizes table construction.
type FaultTableConfig struct {
	// Big marks big routers by router ID; among equal-length shortest
	// paths the table prefers ones through big routers (nil = no bias).
	Big []bool
	// EscapeThreshold is the VA starvation limit in cycles before a packet
	// is diverted to the escape forest (default 64).
	EscapeThreshold int
}

// NewFaultTable builds fault-free routes for t; call Rebuild as failures
// accumulate.
func NewFaultTable(t topology.Topology, cfg FaultTableConfig) *FaultTable {
	n := t.NumRouters()
	ft := &FaultTable{
		minimalPaths: newMinimalPaths(t, cfg.Big),
		escapeAfter:  escapeThreshold(cfg.EscapeThreshold),
		allUp:        topology.NewLinkState(t),
		tree:         arenaTable(t.NumTerminals(), n),
		parent:       make([]int32, n),
		parentPort:   make([]int16, n),
		parentFar:    make([]int16, n),
		comp:         make([]int32, n),
		stamp:        make([]int64, n),
		down:         make([]int16, n),
	}
	ft.Rebuild(nil)
	return ft
}

// escapeThreshold applies the default VA starvation limit of 64 cycles.
func escapeThreshold(cycles int) int {
	if cycles <= 0 {
		return 64
	}
	return cycles
}

// Rebuild recomputes the primary tables and the escape forest over the
// live links in ls (nil = all links up). The result depends on ls alone,
// not on earlier Rebuilds, and is deterministic in both iteration order and
// tie-breaking: every destination is rebuilt with one O(V*radix) pass.
func (ft *FaultTable) Rebuild(ls *topology.LinkState) {
	if ls == nil {
		ls = ft.allUp
	}
	ft.ls = ls
	ft.build(ls)
	ft.buildForest()
	for dst := range ft.tree {
		ft.rebuildTree(dst)
	}
}

// minimalPaths is the primary routing table that FaultTable and TableXY
// share: next[dst][router] is the output port toward terminal dst on a
// shortest path over the links in the adjacency, ties broken toward big
// routers, and -1 where dst is unreachable. TableXY builds it once over
// the fault-free mesh; FaultTable rebuilds it over the live links after
// every permanent fault.
type minimalPaths struct {
	topo   topology.Topology
	bigAdd []int32 // 1 at big routers, 0 elsewhere
	next   [][]int16

	// Link adjacency, refreshed by build: adj[r*maxRadix+p] is the
	// router reached over the live link at port p of router r (-1 for
	// terminal ports, edge ports and dead links) and far[.] is the
	// far-side port on that router. The per-destination passes read these
	// flat arrays instead of calling Neighbor/Up per edge.
	maxRadix int
	adj, far []int32

	// hbuf/bbuf are the per-destination build scratch: hop layer toward the
	// destination over the live links (-1 when unreachable) and the maximum
	// number of big routers after each router over minimal-hop paths.
	hbuf, bbuf []int32

	queue []int32 // BFS scratch reused across passes
}

// newMinimalPaths allocates the tables and scratch for t; call build to
// fill them.
func newMinimalPaths(t topology.Topology, big []bool) minimalPaths {
	n := t.NumRouters()
	terms := t.NumTerminals()
	mp := minimalPaths{topo: t, bigAdd: make([]int32, n)}
	for r, b := range big {
		if b {
			mp.bigAdd[r] = 1
		}
	}
	for r := 0; r < n; r++ {
		if rad := t.Radix(r); rad > mp.maxRadix {
			mp.maxRadix = rad
		}
	}
	mp.adj = make([]int32, n*mp.maxRadix)
	mp.far = make([]int32, n*mp.maxRadix)
	mp.hbuf = make([]int32, n)
	mp.bbuf = make([]int32, n)
	mp.queue = make([]int32, 0, n)
	mp.next = arenaTable(terms, n)
	return mp
}

// arenaTable returns a terms x n table whose rows share one arena.
func arenaTable(terms, n int) [][]int16 {
	arena := make([]int16, terms*n)
	tab := make([][]int16, terms)
	for dst := range tab {
		tab[dst] = arena[dst*n : (dst+1)*n : (dst+1)*n]
	}
	return tab
}

// build refreshes the adjacency from the links up in ls (nil = every link
// of the topology) and rebuilds every destination's table.
func (mp *minimalPaths) build(ls *topology.LinkState) {
	n := mp.topo.NumRouters()
	for r := 0; r < n; r++ {
		base := r * mp.maxRadix
		rad := mp.topo.Radix(r)
		for p := 0; p < mp.maxRadix; p++ {
			mp.adj[base+p] = -1
			if p >= rad || (ls != nil && !ls.Up(r, p)) {
				continue
			}
			if link, ok := mp.topo.Neighbor(r, p); ok {
				mp.adj[base+p] = int32(link.Router)
				mp.far[base+p] = int32(link.Port)
			}
		}
	}
	for dst := range mp.next {
		mp.rebuildDst(dst)
	}
}

// rebuildDst recomputes next[dst] over the live links with one fused
// O(V*radix) pass, bit-identical to one backwards Dijkstra with cost
// n-big[r] per hop into r:
//
//   - BFS from the destination router assigns hop layers h. Because every
//     simple path has fewer than n hops, big-router discounts of 1 against
//     a per-hop cost of n never sum to a full hop, so Dijkstra distances
//     order lexicographically by (hops ascending, bigs descending) and the
//     BFS layers are exactly the Dijkstra hop counts.
//   - When a router u at layer hu is dequeued, every layer-(hu-1) router
//     has already been dequeued and finalized, so the same port scan that
//     enqueues layer-(hu+1) neighbors also takes the maximal big count over
//     u's minimal-hop out-edges, b(u) = max b(r)+big(r), and records the
//     port toward the argmax — ties broken by larger b(r), then smaller
//     router ID, then smaller far-side port, which is exactly the order the
//     heap pops equal-distance entries.
//
// A fail-stopped destination router has no live links, so its pass finds
// no path and leaves the column at -1.
func (mp *minimalPaths) rebuildDst(dst int) {
	n := mp.topo.NumRouters()
	next := mp.next[dst]
	h := mp.hbuf
	b := mp.bbuf
	for i := 0; i < n; i++ {
		next[i] = -1
		h[i] = -1
		b[i] = 0
	}
	dstR, _ := mp.topo.TerminalRouter(dst)
	h[dstR] = 0
	q := append(mp.queue[:0], int32(dstR))
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		base := u * mp.maxRadix
		adjRow := mp.adj[base : base+mp.maxRadix]
		hu := h[u]
		bestKey, bestB := int32(-1), int32(-1)
		bestR, bestFar := int32(n), int32(mp.maxRadix)
		port := int16(-1)
		for p, r := range adjRow {
			if r < 0 {
				continue
			}
			hr := h[r]
			if hr < 0 {
				h[r] = hu + 1
				q = append(q, r)
				continue
			}
			if hr != hu-1 {
				continue
			}
			kb := b[r] + mp.bigAdd[r]
			if kb > bestKey || (kb == bestKey && (b[r] > bestB ||
				(b[r] == bestB && (r < bestR || (r == bestR && mp.far[base+p] < bestFar))))) {
				bestKey, bestB, bestR, bestFar = kb, b[r], r, mp.far[base+p]
				port = int16(p)
			}
		}
		if qi > 0 {
			b[u] = bestKey
			next[u] = port
		}
	}
	mp.queue = q[:0]
}

// hop returns the primary output port at router r toward terminal dst: the
// ejection port at dst's router, -1 where dst is unreachable.
func (mp *minimalPaths) hop(r, dst int) int {
	dstR, dstP := mp.topo.TerminalRouter(dst)
	if r == dstR {
		return dstP
	}
	return int(mp.next[dst][r])
}

// pathRouters returns the primary-path router sequence from terminal src
// to terminal dst, or nil when dst is unreachable from src.
func (mp *minimalPaths) pathRouters(src, dst int) []int {
	r, _ := mp.topo.TerminalRouter(src)
	dstR, _ := mp.topo.TerminalRouter(dst)
	if r != dstR && mp.next[dst][r] < 0 {
		return nil
	}
	path := []int{r}
	for r != dstR {
		link, ok := mp.topo.Neighbor(r, mp.hop(r, dst))
		if !ok {
			break
		}
		r = link.Router
		path = append(path, r)
		if len(path) > mp.topo.NumRouters() {
			break // defensive: malformed table
		}
	}
	return path
}

// buildForest roots a BFS spanning forest of the live-link graph at the
// lowest-numbered live router of each component. A router's discoverer is
// its parent, so one BFS records parent pointers, the ports on both ends of
// each parent edge and component membership; rebuildTree derives all tree
// tables from this rooted view.
func (ft *FaultTable) buildForest() {
	n := ft.topo.NumRouters()
	for i := 0; i < n; i++ {
		ft.comp[i] = -1
	}
	q := ft.queue[:0]
	for root := 0; root < n; root++ {
		if ft.comp[root] >= 0 || ft.ls.RouterFailed(root) {
			continue
		}
		ft.comp[root] = int32(root)
		ft.parent[root] = -1
		ft.parentPort[root] = -1
		q = append(q[:0], int32(root))
		for qi := 0; qi < len(q); qi++ {
			r := int(q[qi])
			base := r * ft.maxRadix
			for p, u := range ft.adj[base : base+ft.maxRadix] {
				if u < 0 || ft.comp[u] >= 0 {
					continue
				}
				ft.comp[u] = int32(root)
				ft.parent[u] = int32(r)
				ft.parentPort[u] = int16(ft.far[base+p])
				ft.parentFar[u] = int16(p)
				q = append(q, u)
			}
		}
	}
	ft.queue = q[:0]
}

// rebuildTree fills the escape next-hop table for dst from the rooted
// forest in one O(V) pass. Within a tree the path between any two routers
// is unique — up to the common ancestor, then down — so a router's port
// toward the destination is its parent port unless the router is an
// ancestor of the destination (lies on the destination's root path), in
// which case it is the port back down toward the destination. The root
// path is generation-stamped instead of cleared between destinations.
func (ft *FaultTable) rebuildTree(dst int) {
	n := ft.topo.NumRouters()
	next := ft.tree[dst]
	dstR, _ := ft.topo.TerminalRouter(dst)
	if ft.ls.RouterFailed(dstR) {
		for i := 0; i < n; i++ {
			next[i] = -1
		}
		return
	}
	gen := ft.stampGen + 1
	ft.stampGen = gen
	ft.stamp[dstR] = gen
	ft.down[dstR] = -1
	prev := int32(dstR)
	for v := ft.parent[dstR]; v >= 0; v = ft.parent[v] {
		ft.stamp[v] = gen
		ft.down[v] = ft.parentFar[prev]
		prev = v
	}
	cd := ft.comp[dstR]
	for u := 0; u < n; u++ {
		if ft.stamp[u] == gen {
			next[u] = ft.down[u]
		} else if ft.comp[u] == cd {
			next[u] = ft.parentPort[u]
		} else {
			next[u] = -1
		}
	}
}

func (ft *FaultTable) Name() string      { return "fault-table" }
func (ft *FaultTable) NumVCClasses() int { return 2 }

func (ft *FaultTable) InitialClass(src, dst int) int { return classTable }

func (ft *FaultTable) ClassVCs(class, numVCs int) (int, int) {
	switch class {
	case classEscape:
		return 0, 1
	default:
		if numVCs == 1 {
			return 0, 1
		}
		return 1, numVCs
	}
}

func (ft *FaultTable) NextHop(r, src, dst, class int) Decision {
	if class == classEscape {
		return ft.EscapeHop(r, src, dst)
	}
	dstR, _ := ft.topo.TerminalRouter(dst)
	if ft.ls.RouterFailed(dstR) {
		return Decision{OutPort: -1, VCClass: classTable}
	}
	return Decision{OutPort: ft.hop(r, dst), VCClass: classTable}
}

// EscapeHop diverts a starved packet to the spanning-forest escape VC.
func (ft *FaultTable) EscapeHop(r, src, dst int) Decision {
	dstR, dstP := ft.topo.TerminalRouter(dst)
	if ft.ls.RouterFailed(dstR) {
		return Decision{OutPort: -1, VCClass: classEscape}
	}
	if r == dstR {
		return Decision{OutPort: dstP, VCClass: classEscape}
	}
	return Decision{OutPort: int(ft.tree[dst][r]), VCClass: classEscape}
}

// EscapeThreshold returns the VA starvation limit in cycles.
func (ft *FaultTable) EscapeThreshold() int { return ft.escapeAfter }

// Reachable reports whether a live path exists from terminal src to
// terminal dst.
func (ft *FaultTable) Reachable(src, dst int) bool {
	srcR, _ := ft.topo.TerminalRouter(src)
	dstR, _ := ft.topo.TerminalRouter(dst)
	if ft.ls.RouterFailed(srcR) || ft.ls.RouterFailed(dstR) {
		return false
	}
	return srcR == dstR || ft.next[dst][srcR] >= 0
}

// RouteError returns nil when dst is reachable from src, and an error
// wrapping ErrUnreachable otherwise.
func (ft *FaultTable) RouteError(src, dst int) error {
	if ft.Reachable(src, dst) {
		return nil
	}
	return fmt.Errorf("%w (terminal %d -> %d with %d links down)", ErrUnreachable, src, dst, ft.ls.NumDownLinks())
}

// PathRouters returns the primary-path router sequence from terminal src
// to terminal dst, or nil when dst is unreachable. Tests use it to check
// rebuilt paths avoid dead links.
func (ft *FaultTable) PathRouters(src, dst int) []int {
	if !ft.Reachable(src, dst) {
		return nil
	}
	return ft.pathRouters(src, dst)
}
