// Command tracetool works with the repository's chunked memory-trace
// format (HNTR2): it records synthetic benchmark traces to disk (so they
// can be analyzed or shipped), inspects trace files, and prints entries —
// the bridge for users who want to replay their own memory traces through
// the CMP simulator (see internal/trace.ChunkReader).
//
// It also handles the flit-trace files produced by noc.FlitTracer: nocrec
// records a traced mesh run, nocinfo summarizes a trace file, and
// nocexport converts one to Chrome trace-event JSON for Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// Usage:
//
//	tracetool record -workload SPECjbb -core 0 -n 100000 -out jbb0.trc2
//	tracetool record -workload mc-incast -core 0 -n 100000 -out incast0.trc2
//	tracetool morph  -in jbb0.trc2 -out hot.trc2 -hotspot-frac 0.4 -hotspot-lines 16
//	tracetool info   -in jbb0.trc2
//	tracetool head   -in incast0.trc2 -n 20
//	tracetool seek-check -in incast0.trc2
//	tracetool nocrec    -packets 2000 -rate 0.06 -out run.flt
//	tracetool nocinfo   -in run.flt
//	tracetool nocexport -in run.flt -out run.trace.json
//	tracetool attr      -hetero -packets 2000 -out attr.trace.json
//
// attr runs a mesh with the always-on latency attribution: it prints the
// exact per-packet causal account (queue, vc_alloc, switch_alloc, credit,
// link, serialization), and with -out it records the run with a
// noc.FlitTracer and exports flit hops and per-router stall counters on
// one Perfetto timeline.
//
// record accepts adversarial workload names (hotspot, mc-incast, ...)
// alongside the Table 2 profiles. info and head exit nonzero when a trace
// turns out to be corrupt rather than merely short.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"heteronoc/internal/core"
	"heteronoc/internal/noc"
	"heteronoc/internal/obs"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
	"heteronoc/internal/trace"
	"heteronoc/internal/traffic"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "morph":
		morph(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "head":
		head(os.Args[2:])
	case "seek-check":
		seekCheck(os.Args[2:])
	case "nocrec":
		nocrec(os.Args[2:])
	case "nocinfo":
		nocinfo(os.Args[2:])
	case "nocexport":
		nocexport(os.Args[2:])
	case "attr":
		attrCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracetool record|morph|info|head|seek-check|nocrec|nocinfo|nocexport|attr [flags]")
	os.Exit(2)
}

// attrCmd runs a mesh and prints the causal latency account; with -out it
// also traces the run and writes the flit events, with their stall args
// and the per-router stall_cycles counters, as Chrome trace-event JSON.
func attrCmd(args []string) {
	fs := flag.NewFlagSet("attr", flag.ExitOnError)
	side := fs.Int("mesh", 8, "mesh side length (side x side routers)")
	hetero := fs.Bool("hetero", false, "use the Diagonal+BL layout instead of the homogeneous baseline")
	rate := fs.Float64("rate", 0.03, "injection rate in packets/node/cycle")
	hotFrac := fs.Float64("hotspot-frac", 0.2, "fraction of traffic aimed at the center tile (0 = uniform random)")
	packets := fs.Int("packets", 2000, "measured packets")
	ring := fs.Int("ring", 4096, "per-router ring capacity in records (with -out)")
	seed := fs.Int64("seed", 42, "traffic seed")
	out := fs.String("out", "", "output Chrome trace-event JSON (optional)")
	fs.Parse(args)
	l := core.NewBaseline(*side, *side)
	if *hetero {
		l = core.NewLayout(core.PlacementDiagonal, *side, *side, true)
	}
	net, err := l.Network()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var ft *noc.FlitTracer
	if *out != "" {
		ft = noc.NewNetworkFlitTracer(net, noc.FlitTracerConfig{PerRouter: *ring})
		net.SetTracer(ft)
	}
	n := l.Mesh.NumTerminals()
	var pat traffic.Pattern = traffic.UniformRandom{N: n}
	if *hotFrac > 0 {
		pat = traffic.Hotspot{N: n, Hot: (*side/2)*(*side) + *side/2, Frac: *hotFrac}
	}
	res, err := traffic.Run(net, traffic.RunConfig{
		Pattern:        pat,
		Process:        traffic.Bernoulli{P: *rate},
		DataFlits:      l.DataPacketFlits(),
		WarmupPackets:  *packets / 10,
		MeasurePackets: *packets,
		Seed:           *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s  %s  avg latency %.1f cycles\n", l.Name, pat.Name(), res.AvgLatency)
	for b, name := range noc.AttrBucketNames() {
		fmt.Printf("  %-14s %8.2f cycles/packet\n", name, res.Attr[b])
	}
	fmt.Printf("  %-14s %8.2f (exact account when 0)\n", "residual", res.AttrResidual)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = ft.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d records to %s (%d overwritten in ring)\n", ft.Len(), *out, ft.Dropped())
	}
}

// open returns a replaying reader for a chunked trace file.
func open(path string) *trace.ChunkFile {
	r, err := trace.OpenChunked(path, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return r
}

// checkErr exits nonzero when replay ended in a corrupt chunk — the
// distinction ChunkReader tracks via Err — so scripts can gate on trace
// integrity.
func checkErr(r *trace.ChunkFile) {
	if err := r.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	workload := fs.String("workload", "SPECjbb", "workload name: a Table 2 profile or an adversarial class (hotspot, mc-incast, shared-storm, thrash)")
	core := fs.Int("core", 0, "core id (selects the deterministic stream)")
	n := fs.Int("n", 100000, "entries to record")
	lineBytes := fs.Int("line", 128, "cache line size in bytes")
	tiles := fs.Int("tiles", 64, "tile count of the target CMP (fixes adversarial home/MC mappings)")
	chunk := fs.Int("chunk", 0, "entries per chunk (0 = default)")
	out := fs.String("out", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "record: -out is required")
		os.Exit(2)
	}
	src, err := trace.NewWorkloadReader(*workload, *core, *lineBytes, *tiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	err = trace.RecordChunked(f, src, *n, *chunk)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d entries of %s/core%d to %s (chunked)\n", *n, *workload, *core, *out)
}

func morph(args []string) {
	fs := flag.NewFlagSet("morph", flag.ExitOnError)
	in := fs.String("in", "", "input chunked trace file (required)")
	out := fs.String("out", "", "output chunked trace file (required)")
	hotFrac := fs.Float64("hotspot-frac", 0, "fraction of accesses redirected to the hot line set")
	hotLines := fs.Int("hotspot-lines", 16, "hot set size in cache lines")
	hotTile := fs.Int("hot-tile", 0, "home tile of the hot lines")
	incastFrac := fs.Float64("incast-frac", 0, "fraction of accesses remapped onto one memory controller")
	incastMC := fs.Int("incast-mc", 0, "target memory controller index")
	incastMCs := fs.Int("incast-mcs", 4, "memory controller count")
	gapScale := fs.Float64("gap-scale", 0, "gap multiplier (<1 is more memory-bound, 0 = unchanged)")
	tiles := fs.Int("tiles", 64, "tile count of the target CMP")
	lineBytes := fs.Int("line", 128, "cache line size in bytes")
	seed := fs.Uint64("seed", 1, "morph decision seed")
	chunk := fs.Int("chunk", 0, "entries per chunk (0 = default)")
	n := fs.Int64("n", 0, "entries to convert (0 = whole input)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "morph: -in and -out are required")
		os.Exit(2)
	}
	src := open(*in)
	spec := trace.MorphSpec{
		HotspotFrac: *hotFrac, HotspotLines: *hotLines, HotTile: *hotTile,
		IncastFrac: *incastFrac, IncastMC: *incastMC, IncastMCs: *incastMCs,
		GapScale: *gapScale,
	}
	m := trace.NewMorph(src, spec, *tiles, *lineBytes, *seed)
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w, err := trace.NewChunkWriter(f, *chunk)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for *n == 0 || w.Count() < *n {
		e := m.Next()
		if src.Exhausted() {
			break
		}
		if err := w.Write(e); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	err = w.Close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	checkErr(src)
	fmt.Printf("morphed %d entries of %s into %s\n", w.Count(), *in, *out)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "trace file (required)")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "info: -in is required")
		os.Exit(2)
	}
	r := open(*in)
	fmt.Printf("format         chunked (HNTR2), %d entries indexed\n", r.Len())
	st := trace.Summarize(r, 0)
	fmt.Printf("entries        %d\n", st.Entries)
	fmt.Printf("instructions   %d (memory ops %.1f%%)\n", st.Instructions(), 100*st.MemFrac())
	fmt.Printf("writes         %.1f%%\n", 100*st.WriteFrac())
	fmt.Printf("distinct lines %d (footprint %.1f KiB at 128B lines)\n",
		st.DistinctLines, float64(st.DistinctLines)*128/1024)
	fmt.Printf("same/next-line %.1f%%\n", 100*st.LocalityFrac())
	fmt.Printf("mean gap       %.2f\n", st.MeanGap())
	checkErr(r)
}

func head(args []string) {
	fs := flag.NewFlagSet("head", flag.ExitOnError)
	in := fs.String("in", "", "trace file (required)")
	n := fs.Int("n", 10, "entries to print")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "head: -in is required")
		os.Exit(2)
	}
	r := open(*in)
	for i := 0; i < *n && !r.Exhausted(); i++ {
		e := r.Next()
		if r.Exhausted() {
			break
		}
		op := "R"
		if e.Write {
			op = "W"
		}
		fmt.Printf("%6d: gap=%-4d %s %#x\n", i, e.Gap, op, e.Addr)
	}
	checkErr(r)
}

// seekCheck cross-validates a chunked trace's index: it replays the file
// sequentially and, at evenly spaced sample positions, confirms that an
// independent reader SeekTo()ing there sees the identical entry. A clean
// pass means every chunk decodes, every CRC holds, and the footer index
// agrees with the stream.
func seekCheck(args []string) {
	fs := flag.NewFlagSet("seek-check", flag.ExitOnError)
	in := fs.String("in", "", "chunked trace file (required)")
	samples := fs.Int64("samples", 64, "seek positions to probe")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "seek-check: -in is required")
		os.Exit(2)
	}
	seq, skr := open(*in), open(*in)
	total := seq.Len()
	stride := total / *samples
	if stride < 1 {
		stride = 1
	}
	checked := 0
	for i := int64(0); i < total; i++ {
		e := seq.Next()
		if seq.Err() != nil {
			break
		}
		if i%stride == 0 {
			if err := skr.SeekTo(i); err != nil {
				fmt.Fprintf(os.Stderr, "seek-check: SeekTo(%d): %v\n", i, err)
				os.Exit(1)
			}
			if got := skr.Next(); got != e {
				fmt.Fprintf(os.Stderr, "seek-check: entry %d: seek %+v != sequential %+v\n", i, got, e)
				os.Exit(1)
			}
			checked++
		}
	}
	checkErr(seq)
	checkErr(skr)
	fmt.Printf("ok: %d entries, %d seek probes consistent\n", total, checked)
}

func nocrec(args []string) {
	fs := flag.NewFlagSet("nocrec", flag.ExitOnError)
	side := fs.Int("mesh", 4, "mesh side length (side x side routers)")
	rate := fs.Float64("rate", 0.06, "injection rate in packets/node/cycle")
	packets := fs.Int("packets", 2000, "measured packets")
	ring := fs.Int("ring", 4096, "per-router ring capacity in records")
	macroOnly := fs.Bool("macro", false, "capture only packet life-cycle events (no VC/SA/credit detail)")
	seed := fs.Int64("seed", 42, "traffic seed")
	out := fs.String("out", "", "output flit-trace file (required)")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "nocrec: -out is required")
		os.Exit(2)
	}
	m := topology.NewMesh(*side, *side)
	net, err := noc.New(noc.Config{
		Topo:           m,
		Routing:        routing.NewXY(m),
		Routers:        []noc.RouterConfig{{VCs: 3, BufDepth: 5}},
		WatchdogCycles: 100000,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ft := noc.NewNetworkFlitTracer(net, noc.FlitTracerConfig{PerRouter: *ring, MacroOnly: *macroOnly})
	net.SetTracer(ft)
	if _, err := traffic.Run(net, traffic.RunConfig{
		Pattern:        traffic.UniformRandom{N: m.NumTerminals()},
		Process:        traffic.Bernoulli{P: *rate},
		DataFlits:      6,
		WarmupPackets:  *packets / 10,
		MeasurePackets: *packets,
		Seed:           *seed,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, ft.EncodeTrace(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records to %s (%d overwritten in ring)\n", ft.Len(), *out, ft.Dropped())
}

func openFlitTrace(path string) *noc.FlitTrace {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr, err := noc.ReadFlitTrace(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return tr
}

func nocinfo(args []string) {
	fs := flag.NewFlagSet("nocinfo", flag.ExitOnError)
	in := fs.String("in", "", "flit-trace file (required)")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "nocinfo: -in is required")
		os.Exit(2)
	}
	tr := openFlitTrace(*in)
	fmt.Printf("routers  %d\n", tr.NumRouters)
	fmt.Printf("records  %d\n", len(tr.Records))
	if len(tr.Records) == 0 {
		return
	}
	minCycle, maxCycle := tr.Records[0].Cycle, tr.Records[0].Cycle
	kinds := map[noc.EventKind]int{}
	packets := map[uint64]bool{}
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Cycle < minCycle {
			minCycle = r.Cycle
		}
		if r.Cycle > maxCycle {
			maxCycle = r.Cycle
		}
		kinds[r.Kind]++
		packets[r.Packet] = true
	}
	fmt.Printf("cycles   %d..%d\n", minCycle, maxCycle)
	fmt.Printf("packets  %d distinct\n", len(packets))
	for k := noc.EventKind(0); k < 32; k++ {
		if n, ok := kinds[k]; ok {
			fmt.Printf("  %-12s %d\n", k, n)
		}
	}
}

func nocexport(args []string) {
	fs := flag.NewFlagSet("nocexport", flag.ExitOnError)
	in := fs.String("in", "", "flit-trace file (required)")
	out := fs.String("out", "", "Chrome trace-event JSON output (required)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "nocexport: -in and -out are required")
		os.Exit(2)
	}
	tr := openFlitTrace(*in)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nEvents, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocexport: generated trace failed validation:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d records, %d events; open in ui.perfetto.dev)\n",
		*out, len(tr.Records), nEvents)
}
