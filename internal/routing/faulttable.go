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
	topo        topology.Topology
	bigAdd      []int32 // 1 at big routers, 0 elsewhere
	escapeAfter int
	ls          *topology.LinkState
	// next[dst][router] is the output port toward terminal dst on the
	// primary network, -1 when dst is unreachable from router.
	next [][]int16
	// tree[dst][router] is the output port toward terminal dst restricted
	// to the escape spanning forest, -1 when unreachable.
	tree [][]int16

	// Live-link adjacency, refreshed on every Rebuild: adj[r*maxRadix+p]
	// is the router reached over the live link at port p of router r (-1
	// for terminal ports, edge ports and dead links) and far[.] is the
	// far-side port on that router. The per-destination passes read these
	// flat arrays instead of calling Neighbor/Up per edge.
	maxRadix int
	adj, far []int32

	// hbuf/bbuf are the per-destination build scratch: hop layer toward the
	// destination over the live links (-1 when unreachable) and the maximum
	// number of big routers after each router over minimal-hop paths.
	hbuf, bbuf []int32

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

	queue []int32 // BFS scratch reused across passes
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
	ft := &FaultTable{
		topo:        t,
		escapeAfter: cfg.EscapeThreshold,
	}
	if ft.escapeAfter <= 0 {
		ft.escapeAfter = 64
	}
	n := t.NumRouters()
	terms := t.NumTerminals()
	ft.bigAdd = make([]int32, n)
	for r, b := range cfg.Big {
		if b {
			ft.bigAdd[r] = 1
		}
	}
	for r := 0; r < n; r++ {
		if rad := t.Radix(r); rad > ft.maxRadix {
			ft.maxRadix = rad
		}
	}
	ft.adj = make([]int32, n*ft.maxRadix)
	ft.far = make([]int32, n*ft.maxRadix)
	ft.hbuf = make([]int32, n)
	ft.bbuf = make([]int32, n)
	ft.parent = make([]int32, n)
	ft.parentPort = make([]int16, n)
	ft.parentFar = make([]int16, n)
	ft.comp = make([]int32, n)
	ft.stamp = make([]int64, n)
	ft.down = make([]int16, n)
	ft.queue = make([]int32, 0, n)
	// One arena each for the whole next and tree tables.
	nextArena := make([]int16, terms*n)
	treeArena := make([]int16, terms*n)
	ft.next = make([][]int16, terms)
	ft.tree = make([][]int16, terms)
	for dst := 0; dst < terms; dst++ {
		ft.next[dst] = nextArena[dst*n : (dst+1)*n : (dst+1)*n]
		ft.tree[dst] = treeArena[dst*n : (dst+1)*n : (dst+1)*n]
	}
	ft.Rebuild(nil)
	return ft
}

// Rebuild recomputes the primary tables and the escape forest over the
// live links in ls (nil = all links up). The result depends on ls alone,
// not on earlier Rebuilds, and is deterministic in both iteration order and
// tie-breaking: every destination is rebuilt with one O(V*radix) pass.
func (ft *FaultTable) Rebuild(ls *topology.LinkState) {
	if ls == nil {
		ls = topology.NewLinkState(ft.topo)
	}
	ft.ls = ls
	n := ft.topo.NumRouters()
	for r := 0; r < n; r++ {
		base := r * ft.maxRadix
		rad := ft.topo.Radix(r)
		for p := 0; p < ft.maxRadix; p++ {
			ft.adj[base+p] = -1
			if p >= rad || !ls.Up(r, p) {
				continue
			}
			link, _ := ft.topo.Neighbor(r, p)
			ft.adj[base+p] = int32(link.Router)
			ft.far[base+p] = int32(link.Port)
		}
	}
	ft.buildForest()
	for dst := range ft.next {
		ft.rebuildDst(dst)
		ft.rebuildTree(dst)
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
func (ft *FaultTable) rebuildDst(dst int) {
	n := ft.topo.NumRouters()
	next := ft.next[dst]
	h := ft.hbuf
	b := ft.bbuf
	for i := 0; i < n; i++ {
		next[i] = -1
		h[i] = -1
		b[i] = 0
	}
	dstR, _ := ft.topo.TerminalRouter(dst)
	if ft.ls.RouterFailed(dstR) {
		return
	}
	h[dstR] = 0
	q := append(ft.queue[:0], int32(dstR))
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		base := u * ft.maxRadix
		adjRow := ft.adj[base : base+ft.maxRadix]
		hu := h[u]
		bestKey, bestB := int32(-1), int32(-1)
		bestR, bestFar := int32(n), int32(ft.maxRadix)
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
			kb := b[r] + ft.bigAdd[r]
			if kb > bestKey || (kb == bestKey && (b[r] > bestB ||
				(b[r] == bestB && (r < bestR || (r == bestR && ft.far[base+p] < bestFar))))) {
				bestKey, bestB, bestR, bestFar = kb, b[r], r, ft.far[base+p]
				port = int16(p)
			}
		}
		if qi > 0 {
			b[u] = bestKey
			next[u] = port
		}
	}
	ft.queue = q[:0]
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
	dstR, dstP := ft.topo.TerminalRouter(dst)
	if ft.ls.RouterFailed(dstR) {
		return Decision{OutPort: -1, VCClass: classTable}
	}
	if r == dstR {
		return Decision{OutPort: dstP, VCClass: classTable}
	}
	return Decision{OutPort: int(ft.next[dst][r]), VCClass: classTable}
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
	r, _ := ft.topo.TerminalRouter(src)
	dstR, _ := ft.topo.TerminalRouter(dst)
	if !ft.Reachable(src, dst) {
		return nil
	}
	path := []int{r}
	for r != dstR {
		d := ft.NextHop(r, src, dst, classTable)
		link, ok := ft.topo.Neighbor(r, d.OutPort)
		if !ok {
			break
		}
		r = link.Router
		path = append(path, r)
		if len(path) > ft.topo.NumRouters() {
			break // defensive: malformed table
		}
	}
	return path
}
