package topology

// LinkState overlays a Topology with per-link and per-router liveness.
// Links are bidirectional for failure purposes: failing either direction
// marks both down, matching a fail-stop physical link. The zero state is
// fully up. LinkState is a pure bookkeeping structure — the simulator and
// the fault-aware routing algorithms consult it but it moves no flits.
type LinkState struct {
	topo Topology
	// down[r][p] marks network port p of router r dead.
	down [][]bool
	// deadRouter[r] marks router r fail-stopped.
	deadRouter []bool
	downLinks  int
}

// NewLinkState returns an all-up link state for t.
func NewLinkState(t Topology) *LinkState {
	ls := &LinkState{
		topo:       t,
		down:       make([][]bool, t.NumRouters()),
		deadRouter: make([]bool, t.NumRouters()),
	}
	for r := range ls.down {
		ls.down[r] = make([]bool, t.Radix(r))
	}
	return ls
}

// Topology returns the underlying graph.
func (ls *LinkState) Topology() Topology { return ls.topo }

// FailLink marks both directions of the network link at (r, p) down. It
// reports whether the call changed anything (false for terminal/edge ports
// and already-dead links).
func (ls *LinkState) FailLink(r, p int) bool {
	link, ok := ls.topo.Neighbor(r, p)
	if !ok || ls.down[r][p] {
		return false
	}
	ls.down[r][p] = true
	ls.down[link.Router][link.Port] = true
	ls.downLinks++
	return true
}

// FailRouter marks router r dead and fails every network link touching it.
// It reports whether the router was alive.
func (ls *LinkState) FailRouter(r int) bool {
	if ls.deadRouter[r] {
		return false
	}
	ls.deadRouter[r] = true
	for p := 0; p < ls.topo.Radix(r); p++ {
		ls.FailLink(r, p)
	}
	return true
}

// Up reports whether network port p of router r is a live network link.
// Terminal and edge ports report false; use the Topology for those.
func (ls *LinkState) Up(r, p int) bool {
	if ls.down[r][p] {
		return false
	}
	_, ok := ls.topo.Neighbor(r, p)
	return ok
}

// RouterFailed reports whether router r has fail-stopped.
func (ls *LinkState) RouterFailed(r int) bool { return ls.deadRouter[r] }

// NumDownLinks returns the number of failed bidirectional links (a failed
// router contributes each of its links once).
func (ls *LinkState) NumDownLinks() int { return ls.downLinks }

// Clone returns an independent copy.
func (ls *LinkState) Clone() *LinkState {
	c := &LinkState{
		topo:       ls.topo,
		down:       make([][]bool, len(ls.down)),
		deadRouter: append([]bool(nil), ls.deadRouter...),
		downLinks:  ls.downLinks,
	}
	for r := range ls.down {
		c.down[r] = append([]bool(nil), ls.down[r]...)
	}
	return c
}

// ReachableFrom returns the set of routers reachable from router `from`
// over live links (including `from` itself, unless it has fail-stopped).
func (ls *LinkState) ReachableFrom(from int) []bool {
	seen := make([]bool, ls.topo.NumRouters())
	if ls.deadRouter[from] {
		return seen
	}
	queue := []int{from}
	seen[from] = true
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for p := 0; p < ls.topo.Radix(r); p++ {
			if !ls.Up(r, p) {
				continue
			}
			link, _ := ls.topo.Neighbor(r, p)
			if !seen[link.Router] {
				seen[link.Router] = true
				queue = append(queue, link.Router)
			}
		}
	}
	return seen
}

// Connected reports whether every live router can reach every other live
// router over live links. A fully dead network counts as connected
// (vacuously).
func (ls *LinkState) Connected() bool {
	first := -1
	for r := range ls.deadRouter {
		if !ls.deadRouter[r] {
			first = r
			break
		}
	}
	if first < 0 {
		return true
	}
	seen := ls.ReachableFrom(first)
	for r := range ls.deadRouter {
		if !ls.deadRouter[r] && !seen[r] {
			return false
		}
	}
	return true
}
