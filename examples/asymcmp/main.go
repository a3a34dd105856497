// Asymcmp runs the Section 7 case study: an asymmetric CMP (4 large
// out-of-order cores at the mesh corners, 60 small in-order cores) on
// three network configurations, including table-based routing that steers
// the latency-critical large-core traffic through the big routers on the
// diagonals (with escape VCs for deadlock freedom).
package main

import (
	"context"
	"fmt"
	"log"

	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/routing"
	"heteronoc/internal/trace"
)

var largeTiles = []int{0, 7, 56, 63}

func isLarge(t int) bool {
	for _, l := range largeTiles {
		if t == l {
			return true
		}
	}
	return false
}

func build(l core.Layout, table bool) *cmp.System {
	libq, err := trace.ProfileByName("libquantum")
	if err != nil {
		log.Fatal(err)
	}
	jbb, err := trace.ProfileByName("SPECjbb")
	if err != nil {
		log.Fatal(err)
	}
	trs := make([]trace.Reader, 64)
	cores := make([]cmp.CoreConfig, 64)
	for i := 0; i < 64; i++ {
		if isLarge(i) {
			trs[i] = trace.NewGeneratorAt(libq, i, 128, 1<<26)
			cores[i] = cmp.LargeCore()
		} else {
			trs[i] = trace.NewGenerator(jbb, i, 128)
			cores[i] = cmp.SmallCore()
		}
	}
	var alg routing.Algorithm
	if table {
		alg = routing.NewTableXY(l.Mesh, routing.TableXYConfig{
			Flagged: largeTiles,
			Big:     l.BigSet(),
		})
	}
	s, err := cmp.New(cmp.Config{Layout: l, Traces: trs, Cores: cores, Routing: alg})
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	configs := []struct {
		name  string
		l     core.Layout
		table bool
	}{
		{"HomoNoC-XY", core.NewBaseline(8, 8), false},
		{"HeteroNoC-XY", core.NewLayout(core.PlacementDiagonal, 8, 8, true), false},
		{"HeteroNoC-Table+XY", core.NewLayout(core.PlacementDiagonal, 8, 8, true), true},
	}
	fmt.Println("4x libquantum on large corner cores + 60x SPECjbb threads (Section 7)")
	fmt.Println()
	fmt.Printf("%-20s %12s %12s\n", "config", "libq IPC", "jbb IPC")
	for _, c := range configs {
		s := build(c.l, c.table)
		if err := s.Warmup(context.Background(), 30000); err != nil {
			log.Fatal(err)
		}
		if err := s.Run(15000); err != nil {
			log.Fatal(err)
		}
		var libqIPC, jbbIPC float64
		for _, t := range s.Tiles {
			if isLarge(t.ID) {
				libqIPC += t.Core.IPC() / 4
			} else {
				jbbIPC += t.Core.IPC() / 60
			}
		}
		fmt.Printf("%-20s %12.3f %12.3f\n", c.name, libqIPC, jbbIPC)
	}
	fmt.Println("\nTable-based routing expedites libquantum through the big routers")
	fmt.Println("while freeing the small routers for SPECjbb traffic.")
}
