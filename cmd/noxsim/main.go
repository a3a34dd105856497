// Command noxsim runs a single network-only simulation and prints the
// measured latency, throughput and power.
//
// Usage:
//
//	noxsim [-layout Baseline|Center+B|Center+BL|Row2_5+B|Row2_5+BL|Diagonal+B|Diagonal+BL]
//	       [-pattern ur|nn|transpose|bitcomp] [-rate 0.02] [-selfsimilar]
//	       [-torus] [-warmup 1000] [-packets 100000] [-seed 42]
//	       [-sweep lo:hi:step] [-csv]
//	       [-obs :6060] [-stride 1000] [-timeseries ts.json] [-manifest run.json]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -sweep, the single measurement is replaced by a load sweep and one
// result line per injection rate; -csv emits machine-readable output.
//
// -obs serves live introspection while the simulation runs: /metrics
// (Prometheus text, re-rendered every -stride cycles), /timeseries (the
// sampler's windowed series), /healthz (with a stalled-router dump when
// cycle progress freezes) and net/http/pprof. -timeseries writes the final
// series to a file (.csv by extension, JSON otherwise); -manifest records
// run provenance including a per-rate state fingerprint.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"heteronoc/internal/core"
	"heteronoc/internal/noc"
	"heteronoc/internal/obs"
	"heteronoc/internal/power"
	"heteronoc/internal/prof"
	"heteronoc/internal/stats"
	"heteronoc/internal/traffic"
)

// layoutByName parses the Figure 3 configuration names on the 8x8 mesh.
func layoutByName(name string) (core.Layout, error) {
	return core.LayoutByName(name, 8, 8)
}

func main() {
	layoutName := flag.String("layout", "Diagonal+BL", "network configuration (Figure 3 names)")
	configPath := flag.String("config", "", "JSON layout spec file (overrides -layout; see core.LayoutSpec)")
	patternName := flag.String("pattern", "ur", "traffic pattern: ur, nn, transpose, bitcomp")
	rate := flag.Float64("rate", 0.02, "injection rate in packets/node/cycle")
	selfSim := flag.Bool("selfsimilar", false, "use the self-similar (Pareto on/off) process")
	torus := flag.Bool("torus", false, "run on an 8x8 torus instead of a mesh")
	warmup := flag.Int("warmup", 1000, "warmup packets")
	packets := flag.Int("packets", 100000, "measured packets")
	seed := flag.Int64("seed", 42, "RNG seed")
	sweep := flag.String("sweep", "", "sweep injection rates lo:hi:step instead of a single -rate run")
	csvOut := flag.Bool("csv", false, "emit CSV (rate,latency_cycles,latency_ns,accepted,saturated,power_w,combine)")
	show := flag.Bool("show", false, "print the router placement map before running")
	obsAddr := flag.String("obs", "", "serve live introspection (/metrics, /timeseries, /healthz, pprof) on this address")
	stride := flag.Int64("stride", 1000, "sampling window in cycles for -obs/-timeseries")
	tsOut := flag.String("timeseries", "", "write the sampled time series to this file (.csv or JSON)")
	manifestOut := flag.String("manifest", "", "write a run-provenance manifest to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err2 := prof.Start(*cpuProfile, *memProfile)
	if err2 != nil {
		fmt.Fprintln(os.Stderr, err2)
		os.Exit(2)
	}
	defer stopProf()

	var l core.Layout
	var err error
	if *configPath != "" {
		data, rerr := os.ReadFile(*configPath)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(2)
		}
		l, err = core.ParseLayoutJSON(data)
	} else {
		l, err = layoutByName(*layoutName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *torus && !l.Mesh.Wrap() {
		l = l.OnTorus()
	}
	var pattern traffic.Pattern
	switch *patternName {
	case "ur":
		pattern = traffic.UniformRandom{N: l.Mesh.NumTerminals()}
	case "nn":
		pattern = traffic.NearestNeighbor{Grid: l.Mesh}
	case "transpose":
		pattern = traffic.Transpose{Grid: l.Mesh}
	case "bitcomp":
		pattern = traffic.BitComplement{N: l.Mesh.NumTerminals()}
	default:
		fmt.Fprintf(os.Stderr, "unknown pattern %q\n", *patternName)
		os.Exit(2)
	}
	if *show {
		fmt.Print(l.Render())
		fmt.Println()
	}
	rates := []float64{*rate}
	if *sweep != "" {
		var lo, hi, step float64
		if _, err := fmt.Sscanf(*sweep, "%f:%f:%f", &lo, &hi, &step); err != nil || step <= 0 || hi < lo {
			fmt.Fprintf(os.Stderr, "bad -sweep %q (want lo:hi:step)\n", *sweep)
			os.Exit(2)
		}
		rates = nil
		for v := lo; v <= hi+step/2; v += step {
			rates = append(rates, v)
		}
	}
	var ob *obsState
	if *obsAddr != "" || *tsOut != "" {
		ob = &obsState{stride: *stride, tsPath: *tsOut}
		if *stride <= 0 {
			ob.stride = 1000
		}
		if *obsAddr != "" {
			srv, err := obs.StartServer(*obsAddr, obs.ServerConfig{
				Metrics:    ob.snap.Metrics,
				TimeSeries: ob.snap.TimeSeries,
				Progress:   ob.snap.Cycle,
				StallDump: func() string {
					if net := ob.net.Load(); net != nil {
						return net.StalledDump(4)
					}
					return ""
				},
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "introspection server on http://%s\n", srv.Addr())
		}
	}
	if *csvOut {
		fmt.Println("rate,latency_cycles,latency_ns,accepted,saturated,power_w,combine")
	}
	start := time.Now()
	fingerprints := map[string]string{}
	for _, rt := range rates {
		fp := runOnce(l, pattern, rt, *selfSim, *warmup, *packets, *seed, *csvOut || *sweep != "", *csvOut, ob)
		fingerprints[fmt.Sprintf("rate=%.4f", rt)] = fp
	}
	if *manifestOut != "" {
		m := &obs.Manifest{
			Tool:         "noxsim",
			ConfigHash:   configHash(l, *patternName, *selfSim, *warmup, *packets, *seed, rates),
			Layout:       l.Name,
			Seeds:        []int64{*seed},
			Fingerprints: fingerprints,
			WallTimeSec:  time.Since(start).Seconds(),
		}
		if err := m.WriteFile(*manifestOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (run %s)\n", *manifestOut, m.Hash())
	}
}

// obsState is the shared plumbing between the sweep loop and the live
// introspection server: the latest network (for stall dumps) and the cached
// exposition snapshot the HTTP goroutine reads.
type obsState struct {
	snap   obs.Snapshot
	net    atomic.Pointer[noc.Network]
	stride int64
	tsPath string
}

// configHash content-addresses a noxsim invocation.
func configHash(l core.Layout, pattern string, selfSim bool, warmup, packets int, seed int64, rates []float64) string {
	parts := []string{"noxsim/v1", l.Name, l.Mesh.Name(), pattern,
		fmt.Sprint(selfSim), fmt.Sprint(warmup), fmt.Sprint(packets), fmt.Sprint(seed)}
	for _, r := range rates {
		parts = append(parts, fmt.Sprintf("%.6f", r))
	}
	return fmt.Sprintf("%016x", obs.HashStrings(parts...))
}

// runOnce measures one operating point, prints it, and returns the
// network-state fingerprint of the run.
func runOnce(l core.Layout, pattern traffic.Pattern, rate float64, selfSim bool,
	warmup, packets int, seed int64, brief, csvOut bool, ob *obsState) string {
	net, err := l.Network()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if ob != nil {
		ob.net.Store(net)
		reg := obs.NewRegistry()
		net.RegisterMetrics(reg)
		sampler := noc.NewSampler(net, ob.stride)
		net.SetOnCycle(func(c int64) {
			sampler.Tick(c)
			if c%ob.stride == 0 {
				// Render the exposition on the simulation thread; the HTTP
				// goroutine only ever reads the snapshot's cached bytes.
				ob.snap.Update(c, reg, sampler.Series())
			}
		})
		defer func() {
			if ob.tsPath == "" {
				return
			}
			f, err := os.Create(ob.tsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if strings.HasSuffix(ob.tsPath, ".csv") {
				err = sampler.Series().WriteCSV(f)
			} else {
				err = sampler.Series().WriteJSON(f)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d samples)\n", ob.tsPath, sampler.Series().Len())
		}()
	}
	var proc traffic.Process
	if selfSim {
		proc = traffic.NewSelfSimilar(l.Mesh.NumTerminals(), rate)
	} else {
		proc = traffic.Bernoulli{P: rate}
	}
	res, err := traffic.Run(net, traffic.RunConfig{
		Pattern:        pattern,
		Process:        proc,
		DataFlits:      l.DataPacketFlits(),
		WarmupPackets:  warmup,
		MeasurePackets: packets,
		Seed:           seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fp := fmt.Sprintf("%016x", net.Fingerprint())
	pw := power.Network(power.NewModel(), l, res.Activity)
	if csvOut {
		fmt.Printf("%.4f,%.2f,%.2f,%.4f,%v,%.2f,%.3f\n",
			rate, res.AvgLatency, res.AvgLatency/l.FreqGHz(), res.AcceptedRate, res.Saturated, pw.Total(), res.CombineRate)
		return fp
	}
	if brief {
		fmt.Printf("rate=%.4f latency=%.1fcyc (%.1fns) accepted=%.4f sat=%v power=%.1fW\n",
			rate, res.AvgLatency, res.AvgLatency/l.FreqGHz(), res.AcceptedRate, res.Saturated, pw.Total())
		return fp
	}
	fmt.Printf("layout         %s (%s, %.2f GHz, %d-flit data packets)\n",
		l.Name, l.Mesh.Name(), l.FreqGHz(), l.DataPacketFlits())
	fmt.Printf("traffic        %s x %s\n", pattern.Name(), proc.Name())
	fmt.Printf("avg latency    %.2f cycles = %.2f ns\n", res.AvgLatency, res.AvgLatency/l.FreqGHz())
	fmt.Printf("  queuing      %.2f cycles\n", res.QueuingLatency)
	fmt.Printf("  blocking     %.2f cycles\n", res.BlockingLatency)
	fmt.Printf("  transfer     %.2f cycles\n", res.TransferLatency)
	fmt.Printf("avg hops       %.2f\n", res.AvgHops)
	fmt.Printf("tail latency   p50 %.0f / p95 %.0f / p99 %.0f cycles\n",
		res.P50, res.P95, res.P99)
	fmt.Printf("accepted       %.4f packets/node/cycle (offered %.4f)\n", res.AcceptedRate, res.OfferedRate)
	fmt.Printf("saturated      %v\n", res.Saturated)
	fmt.Printf("combining      %.1f%% of busy wide-link cycles\n", 100*res.CombineRate)
	fmt.Printf("network power  %.2f W (buffers %.2f, xbar %.2f, arb %.2f, links %.2f)\n",
		pw.Total(), pw.Buffers, pw.Xbar, pw.Arbiters, pw.Links)
	var util stats.Summary
	for _, a := range res.Activity {
		util.Add(a.LinkUtil)
	}
	fmt.Printf("link util      mean %.1f%%, max %.1f%%\n", 100*util.Mean(), 100*util.Max())
	return fp
}
