package topology

import "testing"

func TestFailLinkIsSymmetric(t *testing.T) {
	m := NewMesh(4, 4)
	ls := NewLinkState(m)
	if !ls.Up(0, PortEast) {
		t.Fatal("fresh link not up")
	}
	if !ls.FailLink(0, PortEast) {
		t.Fatal("FailLink on a live link reported no change")
	}
	if ls.Up(0, PortEast) {
		t.Error("failed direction still up")
	}
	link, _ := m.Neighbor(0, PortEast)
	if ls.Up(link.Router, link.Port) {
		t.Error("reverse direction still up after symmetric failure")
	}
	if ls.FailLink(0, PortEast) {
		t.Error("re-failing a dead link reported a change")
	}
	if ls.FailLink(link.Router, link.Port) {
		t.Error("failing the reverse of a dead link reported a change")
	}
	if ls.NumDownLinks() != 1 {
		t.Errorf("NumDownLinks = %d, want 1 (bidirectional links count once)", ls.NumDownLinks())
	}
	var dead [][2]int
	for r := 0; r < m.NumRouters(); r++ {
		for p := 0; p < m.Radix(r); p++ {
			if _, ok := m.Neighbor(r, p); ok && !ls.Up(r, p) {
				dead = append(dead, [2]int{r, p})
			}
		}
	}
	if len(dead) != 2 {
		t.Fatalf("dead directed ports = %v, want both directions of one link", dead)
	}
}

func TestFailLinkRejectsNonNetworkPorts(t *testing.T) {
	m := NewMesh(4, 4)
	ls := NewLinkState(m)
	// Router 0 sits in the corner: local, west and north ports have no
	// network neighbor and must not be failable.
	for _, p := range []int{PortLocal, PortWest, PortNorth} {
		if _, ok := m.Neighbor(0, p); ok {
			t.Fatalf("port %d of corner router unexpectedly has a neighbor", p)
		}
		if ls.FailLink(0, p) {
			t.Errorf("FailLink accepted non-network port %d", p)
		}
	}
	if ls.NumDownLinks() != 0 {
		t.Errorf("NumDownLinks = %d after refused failures", ls.NumDownLinks())
	}
}

func TestFailRouterKillsAllItsLinks(t *testing.T) {
	m := NewMesh(4, 4)
	ls := NewLinkState(m)
	r := m.RouterAt(1, 1) // interior: four network links
	if !ls.FailRouter(r) {
		t.Fatal("FailRouter on a live router reported no change")
	}
	if !ls.RouterFailed(r) {
		t.Error("router not marked failed")
	}
	if ls.FailRouter(r) {
		t.Error("re-failing a dead router reported a change")
	}
	for p := 0; p < m.Radix(r); p++ {
		if ls.Up(r, p) {
			t.Errorf("port %d of failed router still up", p)
		}
	}
	if ls.NumDownLinks() != 4 {
		t.Errorf("NumDownLinks = %d, want 4 for an interior router", ls.NumDownLinks())
	}
	if seen := ls.ReachableFrom(r); countTrue(seen) != 0 {
		t.Error("failed router reaches routers")
	}
}

func TestConnectedAndReachableFrom(t *testing.T) {
	m := NewMesh(4, 4)
	ls := NewLinkState(m)
	if !ls.Connected() {
		t.Fatal("fresh mesh not connected")
	}
	if countTrue(ls.ReachableFrom(0)) != 16 {
		t.Fatal("fresh mesh not fully reachable")
	}
	// Sever the corner router 0 (east and south links) without failing it.
	ls.FailLink(0, PortEast)
	ls.FailLink(0, PortSouth)
	if ls.Connected() {
		t.Error("mesh with an isolated live router reported connected")
	}
	if got := countTrue(ls.ReachableFrom(0)); got != 1 {
		t.Errorf("isolated router reaches %d routers, want 1 (itself)", got)
	}
	if got := countTrue(ls.ReachableFrom(5)); got != 15 {
		t.Errorf("main component sees %d routers, want 15", got)
	}
	// Failing the isolated router removes it from the live set entirely,
	// and the remaining component is connected again.
	ls.FailRouter(0)
	if !ls.Connected() {
		t.Error("mesh not connected after the severed router fail-stopped")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := NewMesh(4, 4)
	ls := NewLinkState(m)
	ls.FailLink(0, PortEast)
	c := ls.Clone()
	c.FailRouter(5)
	if ls.RouterFailed(5) {
		t.Error("clone mutation leaked into the original")
	}
	if !c.RouterFailed(5) || c.Up(0, PortEast) {
		t.Error("clone did not carry or extend the original state")
	}
	if ls.NumDownLinks() != 1 {
		t.Errorf("original NumDownLinks = %d, want 1", ls.NumDownLinks())
	}
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}
