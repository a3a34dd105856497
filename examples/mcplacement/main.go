// Mcplacement runs the Section 6 case study: memory-controller placement
// co-evaluated with HeteroNoC. It executes a commercial workload (TPC-C)
// on three configurations and prints miss round-trip latency and the
// request-latency jitter at the controllers, reproducing the trend of
// Figure 13.
package main

import (
	"context"
	"fmt"
	"log"

	"heteronoc/internal/cmp"
	"heteronoc/internal/cmp/mem"
	"heteronoc/internal/core"
	"heteronoc/internal/trace"
)

func run(name string, l core.Layout, placement mem.Placement) {
	w, h := l.Mesh.Dims()
	p, err := trace.ProfileByName("TPC-C")
	if err != nil {
		log.Fatal(err)
	}
	trs := make([]trace.Reader, 64)
	for i := range trs {
		trs[i] = trace.NewGenerator(p, i, 128)
	}
	s, err := cmp.New(cmp.Config{
		Layout:  l,
		Traces:  trs,
		MCTiles: mem.Tiles(placement, w, h),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Warmup(context.Background(), 30000); err != nil {
		log.Fatal(err)
	}
	if err := s.Run(15000); err != nil {
		log.Fatal(err)
	}
	rtt := s.MissRTT()
	mc := s.MCReqLatency
	fmt.Printf("%-22s round-trip %7.1f cycles | request-to-MC %6.1f +- %5.2f (CoV %.3f)\n",
		name, rtt.Mean(), mc.Mean(), mc.StdDev(), mc.CoV())
}

func main() {
	fmt.Println("TPC-C on 64 cores, 16 controllers (Section 6)")
	fmt.Println()
	base := core.NewBaseline(8, 8)
	het := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	run("Diamond_homoNoC", base, mem.PlacementDiamond)
	run("Diamond_heteroNoC", het, mem.PlacementDiamond)
	run("Diagonal_heteroNoC", het, mem.PlacementDiagonal)
	fmt.Println("\nDiagonal placement attaches every controller to a big router:")
	fmt.Println("latency and jitter drop together (paper: CoV 0.66 -> 0.46).")
}
