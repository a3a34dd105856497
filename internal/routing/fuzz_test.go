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

// checkTableContract walks every terminal pair over both the primary and
// the escape tables, requiring termination over live links or an explicit
// unreachable report.
func checkTableContract(t *testing.T, m *topology.Mesh, ls *topology.LinkState, ft *FaultTable) {
	t.Helper()
	n := m.NumRouters()
	for src := 0; src < m.NumTerminals(); src++ {
		srcR, _ := m.TerminalRouter(src)
		for dst := 0; dst < m.NumTerminals(); dst++ {
			dstR, _ := m.TerminalRouter(dst)
			if !ft.Reachable(src, dst) {
				if err := ft.RouteError(src, dst); !errors.Is(err, ErrUnreachable) {
					t.Fatalf("%s %d->%d: Reachable false but RouteError = %v", m.Name(), src, dst, err)
				}
				continue
			}
			if err := ft.RouteError(src, dst); err != nil {
				t.Fatalf("%s %d->%d: Reachable true but RouteError = %v", m.Name(), src, dst, err)
			}
			// Primary table: the chain terminates at dstR over live links.
			walkChain(t, m, ls, src, dst, srcR, dstR, n, "primary", func(at int) int {
				return ft.NextHop(at, src, dst, classTable).OutPort
			})
			// Escape forest: same termination contract.
			walkChain(t, m, ls, src, dst, srcR, dstR, n, "escape", func(at int) int {
				return ft.EscapeHop(at, src, dst).OutPort
			})
		}
	}
}

func walkChain(t *testing.T, m *topology.Mesh, ls *topology.LinkState, src, dst, srcR, dstR, n int, kind string, hop func(at int) int) {
	t.Helper()
	at := srcR
	for steps := 0; at != dstR; steps++ {
		if steps > n {
			t.Fatalf("%s %d->%d: %s chain does not terminate", m.Name(), src, dst, kind)
		}
		port := hop(at)
		if port < 0 {
			t.Fatalf("%s %d->%d: %s chain dead-ends at router %d", m.Name(), src, dst, kind, at)
		}
		link, ok := m.Neighbor(at, port)
		if !ok || !ls.Up(at, port) {
			t.Fatalf("%s %d->%d: %s chain crosses dead port %s", m.Name(), src, dst, kind, fmt.Sprintf("%d.%d", at, port))
		}
		at = link.Router
	}
}
