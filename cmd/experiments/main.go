// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|fig1|fig2|table1|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|dse]
//	            [-scale quick|full] [-out results.md] [-nocache]
//	            [-cachedir ~/.cache/heteronoc] [-cachesize bytes]
//	            [-manifest run.manifest.json] [-obs :6060]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Each experiment prints a markdown report with the regenerated data and
// the headline metrics compared in EXPERIMENTS.md. Every run also writes a
// provenance manifest (config hash, per-experiment result fingerprints,
// run-cache statistics) next to the results; -obs serves live /metrics,
// /healthz and pprof endpoints while the run is in flight.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"heteronoc/internal/experiments"
	"heteronoc/internal/obs"
	"heteronoc/internal/prof"
	"heteronoc/internal/runcache"
)

// defaultCacheDir resolves the persistent cache location following the
// XDG convention; "" (disk tier off) when no home directory is known.
func defaultCacheDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "heteronoc")
	}
	return ""
}

func main() {
	exp := flag.String("exp", "all", "experiment id, comma list, 'all' (paper), or 'everything' (paper + extensions)")
	scale := flag.String("scale", "quick", "simulation scale: quick or full")
	out := flag.String("out", "", "write markdown to this file instead of stdout")
	figdir := flag.String("figdir", "", "also write each experiment's SVG figures into this directory")
	jsonOut := flag.String("jsonout", "", "also write all metrics as JSON to this file")
	list := flag.Bool("list", false, "list available experiments and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	noCache := flag.Bool("nocache", false, "disable the run cache entirely, memory and disk (every probe re-simulates)")
	cacheDir := flag.String("cachedir", defaultCacheDir(), "persistent run-cache directory ('' or 'none' disables the disk tier)")
	cacheSize := flag.Int64("cachesize", 256<<20, "disk cache byte cap, LRU-evicted (0 = unlimited)")
	manifestOut := flag.String("manifest", "", "run-manifest path (default: <out>.manifest.json, or experiments.manifest.json; 'none' disables)")
	obsAddr := flag.String("obs", "", "serve live introspection (/metrics, /healthz, pprof) on this address, e.g. :6060")
	flag.Parse()

	runcache.SetEnabled(!*noCache)
	if *cacheDir != "" && *cacheDir != "none" && !*noCache {
		if err := runcache.SetDir(*cacheDir); err != nil {
			// The disk tier is an optimization; an unusable directory must
			// not stop a regeneration.
			fmt.Fprintf(os.Stderr, "warning: disk cache disabled: %v\n", err)
		}
		runcache.SetMaxBytes(*cacheSize)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	if *list {
		fmt.Println("paper experiments:")
		for _, r := range experiments.All() {
			fmt.Printf("  %-8s %s\n", r.ID, r.Name)
		}
		fmt.Println("extensions:")
		for _, r := range experiments.Extensions() {
			fmt.Printf("  %-8s %s\n", r.ID, r.Name)
		}
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick()
	case "full":
		sc = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	var runners []experiments.Runner
	switch *exp {
	case "all":
		runners = experiments.All()
	case "everything":
		runners = experiments.AllWithExtensions()
	default:
		for _, id := range strings.Split(*exp, ",") {
			r, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
	}
	runStart := time.Now()
	var completed atomic.Int64
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		runcache.RegisterMetrics(reg)
		reg.RegisterGauge("experiments_total", "experiments requested", nil,
			func() float64 { return float64(len(ids)) })
		reg.RegisterGauge("experiments_completed", "experiments finished so far", nil,
			func() float64 { return float64(completed.Load()) })
		// Progress for the stall watchdog: cache traffic moves on every
		// simulated probe, so hits+misses advances even inside one long
		// experiment.
		srv, err := obs.StartServer(*obsAddr, obs.ServerConfig{
			Metrics: reg.Exposition,
			Progress: func() int64 {
				hit, miss := runcache.Stats()
				return hit + miss + completed.Load()
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "introspection server on http://%s\n", srv.Addr())
	}

	// Interrupts cancel the run cooperatively: every simulation loop
	// observes the context at cycle-batch granularity, so Ctrl-C stops
	// within a batch instead of leaving goroutines mid-flight.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var b strings.Builder
	metrics := map[string]map[string]float64{}
	fingerprints := map[string]string{}
	// rootSpan times each experiment (and, through the context, the cache
	// probe vs execution split inside every runNet). It rides in the
	// manifest's non-canonical section: diagnostics, never identity.
	rootSpan := obs.NewSpan("experiments")
	rootSpan.SetAttr("scale", sc.Name)
	fmt.Fprintf(&b, "# HeteroNoC experiment results (scale: %s)\n\n", sc.Name)
	for _, r := range runners {
		start := time.Now()
		hit0, miss0 := runcache.Stats()
		fmt.Fprintf(os.Stderr, "running %s (%s)...", r.ID, r.Name)
		expSpan := rootSpan.Child(r.ID)
		rep, err := r.Run(obs.ContextWithSpan(ctx, expSpan), sc)
		expSpan.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "\n%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		hit1, miss1 := runcache.Stats()
		fmt.Fprintf(os.Stderr, " done in %.1fs (cache: %d hits, %d misses)\n",
			time.Since(start).Seconds(), hit1-hit0, miss1-miss0)
		b.WriteString(rep.Markdown())
		metrics[rep.ID] = rep.Metrics
		fingerprints[rep.ID] = rep.Fingerprint()
		completed.Add(1)
		if *figdir != "" {
			if err := os.MkdirAll(*figdir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, fig := range rep.Figures {
				path := filepath.Join(*figdir, fig.Name+".svg")
				if err := os.WriteFile(path, []byte(fig.SVG), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "  wrote %s\n", path)
			}
		}
	}

	if hit, miss := runcache.Stats(); hit+miss > 0 {
		fmt.Fprintf(os.Stderr, "run cache: %d hits, %d misses (%d runs reused)\n", hit, miss, hit)
	}
	if dh, dm, de := runcache.DiskStats(); dh+dm > 0 {
		fmt.Fprintf(os.Stderr, "disk cache (%s): %d hits, %d misses, %d evicted\n",
			runcache.Dir(), dh, dm, de)
	}

	if *manifestOut != "none" {
		path := *manifestOut
		if path == "" {
			path = "experiments.manifest.json"
			if *out != "" {
				path = *out + ".manifest.json"
			}
		}
		hit, miss := runcache.Stats()
		dh, dm, de := runcache.DiskStats()
		m := &obs.Manifest{
			Tool:         "experiments",
			ConfigHash:   experiments.ConfigHash(ids, sc),
			Scale:        sc.Name,
			Experiments:  ids,
			Fingerprints: fingerprints,
			RuncacheHits: hit, RuncacheMisses: miss,
			DiskHits: dh, DiskMisses: dm, DiskEvictions: de,
			WallTimeSec: time.Since(runStart).Seconds(),
		}
		rootSpan.End()
		m.Spans = []*obs.Span{rootSpan.Clone()}
		if err := m.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (run %s)\n", path, m.Hash())
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(metrics, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	if *out == "" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
