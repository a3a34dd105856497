// Command heatmap renders the Figure 1/2 utilization heat maps as ASCII.
//
// Usage:
//
//	heatmap [-topo mesh|cmesh|fbfly] [-rate 0.06] [-packets 50000]
//	        [-timeseries ts.csv] [-stride 500]
//
// -timeseries additionally samples per-router buffer occupancy and link
// utilization every -stride cycles during the run and writes the windowed
// time series (CSV for a .csv path, JSON otherwise) — the raw material for
// animating the heat map over time rather than averaging the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"heteronoc/internal/noc"
	"heteronoc/internal/plot"
	"heteronoc/internal/routing"
	"heteronoc/internal/stats"
	"heteronoc/internal/topology"
	"heteronoc/internal/traffic"
)

func main() {
	topoName := flag.String("topo", "mesh", "topology: mesh (8x8), cmesh (4x4 C=4), fbfly (4x4 C=4)")
	rate := flag.Float64("rate", 0.06, "injection rate in packets/node/cycle")
	packets := flag.Int("packets", 50000, "measured packets")
	svgPath := flag.String("svg", "", "also write the buffer-utilization map as an SVG file")
	tsPath := flag.String("timeseries", "", "write a per-router occupancy/utilization time series to this file (.csv for CSV, else JSON)")
	stride := flag.Int64("stride", 500, "time-series sampling stride in cycles")
	flag.Parse()

	var topo topology.Topology
	var alg routing.Algorithm
	var w, h int
	switch *topoName {
	case "mesh":
		m := topology.NewMesh(8, 8)
		topo, alg, w, h = m, routing.NewXY(m), 8, 8
	case "cmesh":
		m := topology.NewCMesh(4, 4, 4)
		topo, alg, w, h = m, routing.NewXY(m), 4, 4
	case "fbfly":
		f := topology.NewFBfly(4, 4, 4)
		topo, alg, w, h = f, routing.NewFBflyRC(f), 4, 4
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topoName)
		os.Exit(2)
	}
	net, err := noc.New(noc.Config{
		Topo:           topo,
		Routing:        alg,
		Routers:        []noc.RouterConfig{{VCs: 3, BufDepth: 5}},
		WatchdogCycles: 100000,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var sampler *noc.Sampler
	if *tsPath != "" {
		sampler = noc.NewSampler(net, *stride)
		sampler.Attach()
	}
	res, err := traffic.Run(net, traffic.RunConfig{
		Pattern:        traffic.UniformRandom{N: topo.NumTerminals()},
		Process:        traffic.Bernoulli{P: *rate},
		DataFlits:      6,
		WarmupPackets:  *packets / 50,
		MeasurePackets: *packets,
		Seed:           42,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buf := make([]float64, topo.NumRouters())
	link := make([]float64, topo.NumRouters())
	for i, a := range res.Activity {
		buf[i] = a.BufOccupancy
		link[i] = a.LinkUtil
	}
	fmt.Println(stats.NewHeatmap("Buffer utilization", w, h, buf).Render())
	fmt.Println(stats.NewHeatmap("Link utilization", w, h, link).Render())
	if *svgPath != "" {
		svg := (&plot.HeatChart{Title: "Buffer utilization (" + *topoName + ")", W: w, H: h, Values: buf}).SVG()
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
	if sampler != nil {
		f, err := os.Create(*tsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ts := sampler.Series()
		if strings.HasSuffix(*tsPath, ".csv") {
			err = ts.WriteCSV(f)
		} else {
			err = ts.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d samples, %d columns)\n", *tsPath, len(ts.Cycles), len(ts.Columns))
	}
}
