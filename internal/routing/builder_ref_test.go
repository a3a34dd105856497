package routing

import (
	"container/heap"

	"heteronoc/internal/topology"
)

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

type intHeap []heapItem

func (h intHeap) Len() int { return len(h) }
func (h intHeap) Less(i, j int) bool {
	return h[i].prio < h[j].prio || (h[i].prio == h[j].prio && h[i].v < h[j].v)
}
func (h intHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)   { *h = append(*h, x.(heapItem)) }
func (h *intHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
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
	pq := &intHeap{{0, dstR}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
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
				heap.Push(pq, heapItem{nd, u})
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
	pq := &intHeap{{0, dstR}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
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
				heap.Push(pq, heapItem{nd, u})
			}
		}
	}
	return next
}
