package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"heteronoc/internal/topology"
)

// routeTableDigest is the SHA-256 of every table entry TestRouteTableDigest
// visits. It was computed once, before the route-table builders were merged
// into one, and must never change: any difference means a table moved.
const routeTableDigest = "8daf18d5578479b9484299a7605090f121df198e9ffcd9e3034dc5ba0a5093fe"

// TestRouteTableDigest pins every primary and escape table entry of
// FaultTable, and every table-class hop of TableXY, over a fixed scenario
// set: meshes and tori of several shapes, three big-router markings, and
// three seeded histories of accumulating link and router failures with a
// Rebuild after each step (all applied to one table, so each history starts
// by bringing every link back), followed by Rebuild(nil).
func TestRouteTableDigest(t *testing.T) {
	h := sha256.New()
	var buf []byte
	put := func(label string, tables ...[][]int16) {
		buf = append(buf[:0], label...)
		for _, tab := range tables {
			for _, row := range tab {
				for _, p := range row {
					buf = binary.LittleEndian.AppendUint16(buf, uint16(p))
				}
			}
		}
		h.Write(buf)
	}
	topos := append(testMeshes(),
		topology.NewTorus(2, 4),
		topology.NewTorus(4, 4),
		topology.NewTorus(5, 3),
	)
	for _, m := range topos {
		n := m.NumRouters()
		sets := bigSets(m)
		for _, name := range []string{"none", "diagonal", "random"} {
			big := sets[name]
			ft := NewFaultTable(m, FaultTableConfig{Big: big})
			put(m.Name()+"/"+name+"/fresh", ft.next, ft.tree)
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ls := topology.NewLinkState(m)
				for step := 0; step < 12; step++ {
					if rng.Intn(4) == 0 {
						ls.FailRouter(rng.Intn(n))
					} else {
						ls.FailLink(rng.Intn(n), rng.Intn(4))
					}
					ft.Rebuild(ls)
					put("step", ft.next, ft.tree)
				}
			}
			ft.Rebuild(nil)
			put("nil", ft.next, ft.tree)
			if m.Wrap() {
				continue
			}
			ta := NewTableXY(m, TableXYConfig{Big: big})
			hops := make([][]int16, m.NumTerminals())
			for dst := range hops {
				hops[dst] = make([]int16, n)
				for r := 0; r < n; r++ {
					hops[dst][r] = int16(ta.NextHop(r, 0, dst, classTable).OutPort)
				}
			}
			put("tablexy", hops)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != routeTableDigest {
		t.Fatalf("route table digest %s, want %s", got, routeTableDigest)
	}
}
