package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"heteronoc/internal/topology"
)

// testMeshes are the grid shapes the builder equivalence tests sweep:
// degenerate, non-square (both orientations), the paper's 8x8, and a
// large mesh the analytic builder is supposed to make cheap.
func testMeshes() []*topology.Mesh {
	return []*topology.Mesh{
		topology.NewMesh(2, 2),
		topology.NewMesh(3, 5),
		topology.NewMesh(5, 3),
		topology.NewMesh(4, 8),
		topology.NewMesh(8, 8),
		topology.NewMesh(16, 16),
	}
}

// bigSets returns deterministic big-router markings for an n-router grid:
// none, the main diagonal, and a seeded random quarter.
func bigSets(m *topology.Mesh) map[string][]bool {
	w, h := m.Dims()
	n := m.NumRouters()
	none := make([]bool, n)
	diag := make([]bool, n)
	for i := 0; i < w && i < h; i++ {
		diag[m.RouterAt(i, i)] = true
		diag[m.RouterAt(w-1-i, i)] = true
	}
	rnd := make([]bool, n)
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n/4; i++ {
		rnd[rng.Intn(n)] = true
	}
	return map[string][]bool{"none": none, "diagonal": diag, "random": rnd}
}

// TestTableXYMatchesDijkstra pins the TableXY construction against the
// original per-destination Dijkstra over minimal-direction edges: every
// table entry must be bit-identical on every mesh shape and big-router
// marking.
func TestTableXYMatchesDijkstra(t *testing.T) {
	for _, m := range testMeshes() {
		for name, big := range bigSets(m) {
			ta := NewTableXY(m, TableXYConfig{Big: big})
			for dst := 0; dst < m.NumTerminals(); dst++ {
				want := refTableXYDst(m, big, dst)
				for r := range want {
					if got := int(ta.paths.next[dst][r]); got != want[r] {
						t.Fatalf("%s/%s dst %d router %d: table port %d, Dijkstra port %d",
							m.Name(), name, dst, r, got, want[r])
					}
				}
			}
		}
	}
}

// TestTableXYIsNotFaultAware guards the named paths field: TableXY routes
// over a fault-free table and must not offer Rebuild, or the simulator
// would rebuild it on faults and treat it as fault-aware routing.
func TestTableXYIsNotFaultAware(t *testing.T) {
	var alg Algorithm = NewTableXY(topology.NewMesh(4, 4), TableXYConfig{})
	if _, ok := alg.(FaultAware); ok {
		t.Fatal("TableXY implements FaultAware")
	}
}

// faultScenarios applies deterministic fault sets to a fresh LinkState:
// fault-free, a few random links, links plus routers, and a cut that
// isolates the north-west corner.
func faultScenarios(m *topology.Mesh) map[string]*topology.LinkState {
	n := m.NumRouters()
	free := topology.NewLinkState(m)

	links := topology.NewLinkState(m)
	rng := rand.New(rand.NewSource(int64(2 * n)))
	for i := 0; i < n/8+2; i++ {
		links.FailLink(rng.Intn(n), rng.Intn(4))
	}

	mixed := links.Clone()
	for i := 0; i < 2; i++ {
		mixed.FailRouter(rng.Intn(n))
	}

	cut := topology.NewLinkState(m)
	cut.FailLink(m.RouterAt(0, 0), topology.PortEast)
	cut.FailLink(m.RouterAt(0, 0), topology.PortSouth)

	return map[string]*topology.LinkState{"free": free, "links": links, "mixed": mixed, "corner": cut}
}

// requireMatchesDijkstra fails unless every primary entry of ft equals the
// reference Dijkstra over the live links in ls.
func requireMatchesDijkstra(t *testing.T, m *topology.Mesh, ls *topology.LinkState, big []bool, ft *FaultTable) {
	t.Helper()
	for dst := 0; dst < m.NumTerminals(); dst++ {
		want := refFaultDst(m, ls, big, dst)
		for r := range want {
			if ft.next[dst][r] != want[r] {
				t.Fatalf("%s dst %d router %d: port %d, Dijkstra port %d",
					m.Name(), dst, r, ft.next[dst][r], want[r])
			}
		}
	}
}

// requireFreshEqual fails unless ft's primary and escape tables equal those
// of a new table rebuilt once on ls: a Rebuild must depend on ls alone,
// never on the fault history that led to it.
func requireFreshEqual(t *testing.T, m *topology.Mesh, ls *topology.LinkState, big []bool, ft *FaultTable) {
	t.Helper()
	fresh := NewFaultTable(m, FaultTableConfig{Big: big})
	fresh.Rebuild(ls)
	for dst := 0; dst < m.NumTerminals(); dst++ {
		for r := 0; r < m.NumRouters(); r++ {
			if ft.next[dst][r] != fresh.next[dst][r] {
				t.Fatalf("%s dst %d router %d: port %d, fresh table port %d",
					m.Name(), dst, r, ft.next[dst][r], fresh.next[dst][r])
			}
			if ft.tree[dst][r] != fresh.tree[dst][r] {
				t.Fatalf("%s dst %d router %d: tree port %d, fresh table tree port %d",
					m.Name(), dst, r, ft.tree[dst][r], fresh.tree[dst][r])
			}
		}
	}
}

// TestFaultTableMatchesDijkstra pins the FaultTable construction against
// the original per-destination Dijkstra over live links, on meshes and tori
// (the 2-wide torus exercises double edges between one router pair), across
// fault scenarios, and holds the escape forest to the table contract.
func TestFaultTableMatchesDijkstra(t *testing.T) {
	topos := append(testMeshes(),
		topology.NewTorus(2, 4),
		topology.NewTorus(4, 4),
		topology.NewTorus(5, 3),
	)
	for _, m := range topos {
		for name, big := range bigSets(m) {
			for sname, ls := range faultScenarios(m) {
				t.Run(fmt.Sprintf("%s/%s/%s", m.Name(), name, sname), func(t *testing.T) {
					ft := NewFaultTable(m, FaultTableConfig{Big: big})
					ft.Rebuild(ls)
					requireMatchesDijkstra(t, m, ls, big, ft)
					checkTableContract(t, m, ls, ft)
				})
			}
		}
	}
}

// TestFaultTableIncrementalSequences drives long random accumulating fault
// sequences — links, routers, forest-edge deaths, partitions — through one
// table, mutating one LinkState in place exactly like the simulator's fault
// sweep does, and checks the tables after every step against the reference
// Dijkstra and against a fresh table rebuilt once on the same state.
func TestFaultTableIncrementalSequences(t *testing.T) {
	grids := []*topology.Mesh{
		topology.NewMesh(4, 8),
		topology.NewMesh(8, 8),
		topology.NewTorus(4, 4),
	}
	for _, m := range grids {
		n := m.NumRouters()
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", m.Name(), seed), func(t *testing.T) {
				big := bigSets(m)["diagonal"]
				rng := rand.New(rand.NewSource(seed))
				ls := topology.NewLinkState(m)
				ft := NewFaultTable(m, FaultTableConfig{Big: big})
				for step := 0; step < 12; step++ {
					if rng.Intn(4) == 0 {
						ls.FailRouter(rng.Intn(n))
					} else {
						ls.FailLink(rng.Intn(n), rng.Intn(4))
					}
					ft.Rebuild(ls)
					requireMatchesDijkstra(t, m, ls, big, ft)
					requireFreshEqual(t, m, ls, big, ft)
				}
				// Rolling back to fault-free restores the pristine tables.
				ft.Rebuild(nil)
				requireFreshEqual(t, m, topology.NewLinkState(m), big, ft)
			})
		}
	}
}

// TestFaultTableRebuildNoAllocsSteadyState checks the arena design: a
// Rebuild over an existing LinkState (the call the simulator makes after
// each permanent fault batch) reuses the table's arenas and scratch and
// allocates nothing.
func TestFaultTableRebuildNoAllocsSteadyState(t *testing.T) {
	m := topology.NewMesh(8, 8)
	ft := NewFaultTable(m, FaultTableConfig{})
	ls := topology.NewLinkState(m)
	ls.FailLink(m.RouterAt(3, 3), topology.PortEast)
	ft.Rebuild(ls)
	if allocs := testing.AllocsPerRun(50, func() { ft.Rebuild(ls) }); allocs > 0 {
		t.Fatalf("steady-state Rebuild makes %.0f allocations, want 0", allocs)
	}
}
