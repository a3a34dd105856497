// Customlayout shows the programmable side of the library: define a
// heterogeneous layout from a JSON spec, check the paper's Section 2
// resource constraints against it, measure it, and then let a short
// placement search look for a better layout with the same budget.
package main

import (
	"fmt"
	"log"

	"heteronoc/internal/core"
	"heteronoc/internal/dse"
	"heteronoc/internal/traffic"
)

const spec = `{
  "name": "knights",
  "width": 8, "height": 8,
  "big": [10, 13, 17, 22, 41, 46, 50, 53, 26, 29, 34, 37, 19, 20, 43, 44],
  "linkRedist": true
}`

func measure(l core.Layout) float64 {
	net, err := l.Network()
	if err != nil {
		log.Fatal(err)
	}
	res, err := traffic.Run(net, traffic.RunConfig{
		Pattern:        traffic.UniformRandom{N: 64},
		Process:        traffic.Bernoulli{P: 0.048},
		DataFlits:      l.DataPacketFlits(),
		WarmupPackets:  500,
		MeasurePackets: 10000,
		Seed:           42,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.AvgLatency
}

func main() {
	l, err := core.ParseLayoutJSON([]byte(spec))
	if err != nil {
		log.Fatal(err)
	}
	res := l.Accounting()
	fmt.Printf("layout %q: %d big routers, buffer bits %d, bisection %d bits\n",
		l.Name, len(core.SpecOf(l).Big), res.BufferBits, res.BisectionBits)
	fmt.Printf("Section 2 power guideline holds: %v\n\n", l.PowerInequalityHolds())

	custom := measure(l)
	diag := measure(core.NewLayout(core.PlacementDiagonal, 8, 8, true))
	fmt.Printf("UR @0.048: %-10s %.1f cycles\n", l.Name, custom)
	fmt.Printf("UR @0.048: %-10s %.1f cycles\n\n", "Diagonal+BL", diag)

	fmt.Println("searching 8x8 placements of 16 big routers (5 generations of 8)...")
	found, err := dse.Search(dse.SearchConfig{
		Eval: dse.EvalConfig{
			W: 8, H: 8, LinkRedist: true,
			InjectionRate: 0.048, Packets: 2000, Seed: 7,
		},
		MinBig: 16, MaxBig: 16,
		PopSize: 8, Generations: 5,
		Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(found.Front) == 0 {
		log.Fatalf("every one of the %d probed placements saturated", found.ArchiveSize)
	}
	best := found.Front[0]
	fmt.Printf("best found: %.1f cycles at %v (%d placements probed)\n", best.AvgLatency, best.Big, found.Evals)
	data, err := core.LayoutJSON(core.NewCustom("searched", 8, 8, best.Big, true))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspec of the latency-best layout:\n%s\n", data)
}
