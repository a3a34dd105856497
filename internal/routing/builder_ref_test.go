package routing

import "heteronoc/internal/topology"

// This file keeps the original Dijkstra-per-destination builders as a
// test-only reference implementation. The production tables are built by
// the one O(V*radix)-per-destination BFS pass in faulttable.go, which
// TableXY reuses; the equivalence tests in builder_test.go require its
// output to stay bit-identical to these.

const (
	hopCost     = 10
	bigDiscount = 4 // a hop landing on a big router costs hopCost-bigDiscount
)

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

type heapItem struct {
	prio int
	v    int
}

func (a heapItem) less(b heapItem) bool {
	return a.prio < b.prio || (a.prio == b.prio && a.v < b.v)
}

// refHeap is a typed binary min-heap on (prio, v). That order is total
// and Dijkstra never pushes one (prio, v) pair twice, so it pops entries
// in the one order any correct heap does, without boxing each entry into
// an interface value.
type refHeap []heapItem

func (h *refHeap) push(it heapItem) {
	a := append(*h, it)
	for j := len(a) - 1; j > 0; {
		i := (j - 1) / 2
		if !a[j].less(a[i]) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
	*h = a
}

func (h *refHeap) pop() heapItem {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].less(a[j]) {
			j = j2
		}
		if !a[j].less(a[i]) {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	*h = a
	return top
}

// refMinimalToward reports whether moving from router u to adjacent router
// v reduces the Manhattan distance to dstR.
func refMinimalToward(t *topology.Mesh, u, v, dstR int) bool {
	ux, uy := t.Coord(u)
	vx, vy := t.Coord(v)
	dx, dy := t.Coord(dstR)
	return abs(vx-dx)+abs(vy-dy) < abs(ux-dx)+abs(uy-dy)
}

// refTableXYDst is the original TableXY per-destination builder: Dijkstra
// from the destination router backwards over the reversed minimal-direction
// graph, a hop into a big router discounted by bigDiscount.
func refTableXYDst(t *topology.Mesh, big []bool, dst int) []int {
	dstR, _ := t.TerminalRouter(dst)
	n := t.NumRouters()
	dist := make([]int, n)
	next := make([]int, n)
	for i := range dist {
		dist[i] = 1 << 30
		next[i] = -1
	}
	dist[dstR] = 0
	pq := refHeap{{0, dstR}}
	for len(pq) > 0 {
		it := pq.pop()
		if it.prio > dist[it.v] {
			continue
		}
		r := it.v
		for p := topology.PortEast; p <= topology.PortSouth; p++ {
			link, ok := t.Neighbor(r, p)
			if !ok {
				continue
			}
			u := link.Router
			if !refMinimalToward(t, u, r, dstR) {
				continue
			}
			c := hopCost
			if big[r] {
				c -= bigDiscount
			}
			if nd := dist[r] + c; nd < dist[u] {
				dist[u] = nd
				next[u] = opposite(p)
				pq.push(heapItem{nd, u})
			}
		}
	}
	return next
}

// refFaultDst is the original FaultTable per-destination builder: Dijkstra
// from the destination router backwards over the reversed live-link graph,
// with cost n-big[r] per hop into r so big routers win ties but never
// lengthen a path.
func refFaultDst(t topology.Topology, ls *topology.LinkState, big []bool, dst int) []int16 {
	dstR, _ := t.TerminalRouter(dst)
	n := t.NumRouters()
	dist := make([]int, n)
	next := make([]int16, n)
	for i := range dist {
		dist[i] = 1 << 30
		next[i] = -1
	}
	if ls.RouterFailed(dstR) {
		return next
	}
	dist[dstR] = 0
	pq := refHeap{{0, dstR}}
	for len(pq) > 0 {
		it := pq.pop()
		if it.prio > dist[it.v] {
			continue
		}
		r := it.v
		for p := 0; p < t.Radix(r); p++ {
			if !ls.Up(r, p) {
				continue
			}
			link, _ := t.Neighbor(r, p)
			u := link.Router
			c := n
			if big[r] {
				c--
			}
			if nd := dist[r] + c; nd < dist[u] {
				dist[u] = nd
				next[u] = int16(link.Port)
				pq.push(heapItem{nd, u})
			}
		}
	}
	return next
}
