package routing

import (
	"errors"
	"fmt"
	"testing"

	"heteronoc/internal/topology"
)

// FuzzFaultTableRebuild drives table reconstruction with arbitrary
// dead-link (and dead-router) sets on 8x8, non-square 4x8, and 16x16
// meshes. Faults are applied one at a time with a Rebuild after each —
// exactly how the simulator's fault sweep uses the table — and the result
// must be bit-identical to the reference Dijkstra and to a fresh table
// rebuilt once on the final state. Whatever the failure pattern — including
// partitions and fully dead networks — the rebuilt tables must also be
// finite and consistent: every next-hop chain either reaches its
// destination within NumRouters steps over live links only, or the pair is
// reported unreachable via Reachable/RouteError. The escape-forest table is
// held to the same contract. Panics and non-terminating walks are the
// failure modes under test.
func FuzzFaultTableRebuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x03, 0x02, 0x1b, 0x81, 0x3f, 0x00})
	f.Add([]byte{0x1b, 0x01, 0x1c, 0x01, 0x23, 0x01, 0x24, 0x01}) // carve out the center
	f.Add([]byte{0x00, 0x80, 0x3f, 0x80, 0x07, 0x80, 0x38, 0x80}) // kill the corners
	f.Fuzz(func(t *testing.T, data []byte) {
		grids := []*topology.Mesh{
			topology.NewMesh(8, 8),
			topology.NewMesh(4, 8),
			topology.NewMesh(16, 16),
		}
		for _, m := range grids {
			big := diagonalBig(m)
			ls := topology.NewLinkState(m)
			ft := NewFaultTable(m, FaultTableConfig{Big: big})
			for i := 0; i+1 < len(data); i += 2 {
				r := int(data[i]) % m.NumRouters()
				if data[i+1]&0x80 != 0 {
					ls.FailRouter(r)
				} else {
					ls.FailLink(r, int(data[i+1])%m.Radix(r))
				}
				ft.Rebuild(ls)
			}
			requireMatchesDijkstra(t, m, ls, big, ft)
			requireFreshEqual(t, m, ls, big, ft)
			checkTableContract(t, m, ls, ft)
		}
	})
}

// Chain marks for checkTableContract: a router's chain in one table column
// is still unknown, on the walk under way, reaches the destination over
// live links, or stops at a -1 entry.
const (
	chainUnknown uint8 = iota
	chainOnPath
	chainReaches
	chainStops
)

// checkTableContract checks the primary and escape tables one destination
// at a time. markChains walks each next and tree column once, memoized, and
// fails on a cycle or on a hop over a dead port; every terminal pair the
// table reports reachable must then start at a router whose chain reaches
// the destination in both tables, and Reachable and RouteError must agree
// on every pair.
func checkTableContract(t *testing.T, m *topology.Mesh, ls *topology.LinkState, ft *FaultTable) {
	t.Helper()
	n := m.NumRouters()
	marks := [2][]uint8{make([]uint8, n), make([]uint8, n)}
	path := make([]int, 0, n)
	for dst := 0; dst < m.NumTerminals(); dst++ {
		dstR, _ := m.TerminalRouter(dst)
		for k, col := range [2][]int16{ft.next[dst], ft.tree[dst]} {
			if err := markChains(m, ls, col, dstR, marks[k], path); err != nil {
				t.Fatalf("%s ->%d: %s table: %v", m.Name(), dst, [2]string{"primary", "escape"}[k], err)
			}
		}
		for src := 0; src < m.NumTerminals(); src++ {
			reachable, err := ft.Reachable(src, dst), ft.RouteError(src, dst)
			if reachable != (err == nil) || (err != nil && !errors.Is(err, ErrUnreachable)) {
				t.Fatalf("%s %d->%d: Reachable %t but RouteError = %v", m.Name(), src, dst, reachable, err)
			}
			srcR, _ := m.TerminalRouter(src)
			if reachable && (marks[0][srcR] != chainReaches || marks[1][srcR] != chainReaches) {
				t.Fatalf("%s %d->%d: reachable, but a chain from router %d dead-ends (primary %d, escape %d)",
					m.Name(), src, dst, srcR, marks[0][srcR], marks[1][srcR])
			}
		}
	}
}

// markChains sets mark[r] to chainReaches for every router whose chain of
// ports in col reaches dstR over live links and to chainStops for every
// other router. Each router is walked once: a walk ends at the first
// router already marked. It returns an error on a cycle or on a hop over a
// port with no live link; path is scratch.
func markChains(m *topology.Mesh, ls *topology.LinkState, col []int16, dstR int, mark []uint8, path []int) error {
	clear(mark)
	if !ls.RouterFailed(dstR) {
		mark[dstR] = chainReaches
	}
	for r := range mark {
		at, end := r, chainUnknown
		path = path[:0]
		for end == chainUnknown {
			switch mark[at] {
			case chainOnPath:
				return fmt.Errorf("chain from router %d cycles through router %d", r, at)
			case chainReaches, chainStops:
				end = mark[at]
				continue
			}
			mark[at] = chainOnPath
			path = append(path, at)
			port := int(col[at])
			if port < 0 {
				end = chainStops
				continue
			}
			link, ok := m.Neighbor(at, port)
			if !ok || !ls.Up(at, port) {
				return fmt.Errorf("chain from router %d crosses dead port %d.%d", r, at, port)
			}
			at = link.Router
		}
		for _, v := range path {
			mark[v] = end
		}
	}
	return nil
}
