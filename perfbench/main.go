// Command perfbench is the repository benchmark. It runs one named workload
// for a given number of seconds, built from a seed given as an argument,
// checks that every simulated output is correct, and prints its metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (metrics.go endToEnd),
// measured with tracing off. With -trace 1 the rounds alternate between
// traced and untraced; the traced rounds record spans around every call
// into the internal/ packages and give the per-layer metrics (perLayer),
// and the untraced ones give the tracing overhead.
//
// A run repeats rounds of fixed work until the time is up; every metric is
// a median (or a percentile) over rounds, and every round re-checks its
// outputs. Run it through run.sh, which builds it from the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// bench is one workload, ready to run rounds of its fixed work.
type bench interface {
	// round runs one round: set-up, then the timed phase. Spans of a
	// traced round hang under sc.
	round(sc scope) (*roundResult, error)
	close()
}

// workloads maps the workload names (BENCHMARK.json) to their
// constructors; each turns a seed into inputs and the inputs into a bench.
var workloads = map[string]func(seed int64) (bench, error){
	"noc-synth":   func(seed int64) (bench, error) { return newNocSynth(genNocSynth(seed)) },
	"cmp-apps":    func(seed int64) (bench, error) { return newCmpApps(genCmpApps(seed)) },
	"serve-mixed": func(seed int64) (bench, error) { return newServeMixed(genServeMixed(seed)) },
}

// op is one operation of a round's timed phase: a simulation run, a CMP
// run, or a client request.
type op struct {
	key string
	dur time.Duration
	fp  string // fingerprint of the simulated output ("" if none)
	err error
}

// roundResult is what one round measured.
type roundResult struct {
	setup, wall  time.Duration
	ops          []op
	checks       []op    // fingerprints to verify that are not operations
	routerCycles float64 // simulated router-cycles in the timed phase
	layer        map[string]float64
	fails        []string // broken invariants, each one failed operation
	self         map[string]time.Duration
	traced       bool
}

func newRound() *roundResult { return &roundResult{layer: map[string]float64{}} }

func (rr *roundResult) add(key string, dur time.Duration, fp string, err error) {
	rr.ops = append(rr.ops, op{key: key, dur: dur, fp: fp, err: err})
}

// verify records a fingerprint that must match like an operation's, for
// an output that is not itself a request (the DSE front).
func (rr *roundResult) verify(key, fp string, err error) {
	rr.checks = append(rr.checks, op{key: key, fp: fp, err: err})
}

// outputs lists every fingerprinted output of the round.
func (rr *roundResult) outputs() []op {
	return append(append([]op(nil), rr.ops...), rr.checks...)
}

func (rr *roundResult) fail(format string, args ...any) {
	rr.fails = append(rr.fails, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: noc-synth, cmp-apps or serve-mixed")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	secs := fs.Float64("seconds", 20, "how long to keep running rounds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "out"), "directory for the result record and the Chrome trace")
	printFP := fs.Bool("print-fingerprints", false, "print the first round's fingerprints as JSON (to update expected.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := mk(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rounds, rec, err := measure(b, time.Duration(*secs*float64(time.Second)), *trace == 1)
	b.close()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if *printFP {
		fps := map[string]string{}
		for _, o := range rounds[0].outputs() {
			if o.fp != "" {
				fps[o.key] = o.fp
			}
		}
		json.NewEncoder(stdout).Encode(fps)
	}
	var want map[string]string
	if *seed == defaultSeed {
		want = expected[*name]
	}
	attempted, failed, notes := check(rounds, want)
	for _, n := range notes {
		fmt.Fprintln(stderr, "perfbench: check:", n)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	s := summarize(rounds)
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	for _, m := range list {
		res.Metrics[m.name] = value{s[m.name], m.unit}
	}

	host := readHost(root)
	printSummary(stdout, *name, *seed, rounds, s, attempted, failed, host)
	if err := writeRecord(*outDir, *name, *seed, *trace, host, res, rounds, rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing record: %v\n", err)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// Round limits: enough rounds for a median, and few enough that a run
// ends well inside the 180 s a caller may allow.
const (
	minRounds = 3
	maxWall   = 150 * time.Second
)

// measure runs rounds until d has passed. In traced mode even rounds are
// traced and odd rounds are not, so both halves see the same conditions.
// It returns the recorder of the last traced round.
func measure(b bench, d time.Duration, traced bool) ([]*roundResult, *recorder, error) {
	start := time.Now()
	need := minRounds
	if traced {
		need = 2 * minRounds
	}
	var rounds []*roundResult
	var last *recorder
	for i := 0; ; i++ {
		var rec *recorder
		if traced && i%2 == 0 {
			rec = newRecorder()
		}
		// Start every round from a collected heap with its free pages
		// returned to the OS, so no round pays for the previous one's
		// garbage, every round faults its memory in the same way, and peak
		// memory does not depend on when the collector happened to run.
		debug.FreeOSMemory()
		sc := rec.root("bench", "round")
		rr, err := b.round(sc)
		sc.end()
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", i, err)
		}
		if rec != nil {
			rr.traced, rr.self, last = true, rec.selfTimes(), rec
		}
		rounds = append(rounds, rr)
		el := time.Since(start)
		if (el >= d && len(rounds) >= need) || el >= maxWall {
			return rounds, last, nil
		}
	}
}

// check counts attempted and failed operations. An operation fails when it
// returned an error, when its fingerprint differs from the pinned value
// (want, at the default seed), or when it differs from the same operation
// in the first round: every round repeats identical inputs, so any change
// is nondeterminism. Each broken invariant counts as one more failed
// operation.
func check(rounds []*roundResult, want map[string]string) (attempted, failed int, notes []string) {
	first := map[string]string{}
	for _, o := range rounds[0].outputs() {
		if _, ok := first[o.key]; !ok {
			first[o.key] = o.fp
		}
	}
	for ri, rr := range rounds {
		for _, o := range rr.outputs() {
			attempted++
			switch {
			case o.err != nil:
				failed++
				notes = append(notes, fmt.Sprintf("round %d %s: %v", ri, o.key, o.err))
			case want != nil && o.fp != "" && o.fp != want[o.key]:
				failed++
				notes = append(notes, fmt.Sprintf("round %d %s: fingerprint %s, expected %q", ri, o.key, o.fp, want[o.key]))
			case o.fp != first[o.key]:
				failed++
				notes = append(notes, fmt.Sprintf("round %d %s: fingerprint %s differs from round 0 (%s)", ri, o.key, o.fp, first[o.key]))
			}
		}
		for _, f := range rr.fails {
			attempted++
			failed++
			notes = append(notes, fmt.Sprintf("round %d: %s", ri, f))
		}
	}
	return attempted, failed, notes
}

// summarize folds the rounds into every metric. End-to-end metrics come
// from untraced rounds, per-layer metrics from traced ones (or from every
// round when none was traced).
func summarize(rounds []*roundResult) map[string]float64 {
	var plain, traced []*roundResult
	for _, rr := range rounds {
		if rr.traced {
			traced = append(traced, rr)
		} else {
			plain = append(plain, rr)
		}
	}
	if len(traced) == 0 {
		traced = plain
	}
	s := map[string]float64{}
	med := func(rs []*roundResult, f func(*roundResult) float64) float64 {
		xs := make([]float64, len(rs))
		for i, rr := range rs {
			xs[i] = f(rr)
		}
		return median(xs)
	}
	s["setup_s"] = med(plain, func(rr *roundResult) float64 { return rr.setup.Seconds() })
	s["wall_s"] = med(plain, func(rr *roundResult) float64 { return rr.wall.Seconds() })
	s["router_cycles_per_s"] = med(plain, func(rr *roundResult) float64 { return rr.routerCycles / rr.wall.Seconds() })
	s["req_per_s"] = med(plain, func(rr *roundResult) float64 { return float64(len(rr.ops)) / rr.wall.Seconds() })
	var lat []float64
	for _, rr := range plain {
		for _, o := range rr.ops {
			lat = append(lat, millis(o.dur))
		}
	}
	s["req_p50_ms"] = percentile(lat, 50)
	s["req_p95_ms"] = percentile(lat, 95)
	s["req_samples"] = float64(len(lat))
	s["peak_rss_mb"] = peakRSSMB()

	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "layer.") {
			l := strings.TrimSuffix(strings.TrimPrefix(m.name, "layer."), ".self_ms")
			s[m.name] = med(traced, func(rr *roundResult) float64 { return millis(rr.self[l]) })
			continue
		}
		s[m.name] = med(traced, func(rr *roundResult) float64 { return rr.layer[m.name] })
	}
	if len(traced) > 0 && len(plain) > 0 && traced[0].traced {
		tw := med(traced, func(rr *roundResult) float64 { return rr.wall.Seconds() })
		pw := med(plain, func(rr *roundResult) float64 { return rr.wall.Seconds() })
		s["bench.trace_overhead_pct"] = 100 * ratio(tw-pw, pw)
	}
	// The two workload-specific rates are per-layer metrics (they are 0 on
	// the other workloads), but the summary prints them from untraced
	// rounds like the end-to-end ones.
	s["cmp_cycles_per_s.untraced"] = med(plain, func(rr *roundResult) float64 { return rr.layer["cmp_cycles_per_s"] })
	s["dse_gen_s.untraced"] = med(plain, func(rr *roundResult) float64 { return rr.layer["dse_gen_s"] })
	return s
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// printSummary writes the human-readable lines that precede the result:
// the host record and every end-to-end metric by name with its unit,
// including the workload-specific ones the JSON line does not carry.
func printSummary(w io.Writer, name string, seed int64, rounds []*roundResult, s map[string]float64,
	attempted, failed int, host hostRecord) {
	h, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", h)
	fmt.Fprintf(w, "workload %s seed %d: %d rounds\n", name, seed, len(rounds))
	lines := []struct {
		name, unit string
		v          float64
		note       string
	}{
		{"setup_s", "s", s["setup_s"], ""},
		{"wall_s", "s", s["wall_s"], ""},
		{"router_cycles_per_s", "1/s", s["router_cycles_per_s"], ""},
		{"cmp_cycles_per_s", "1/s", s["cmp_cycles_per_s.untraced"], "cmp-apps only"},
		{"req_p50_ms", "ms", s["req_p50_ms"], fmt.Sprintf("n=%d", int(s["req_samples"]))},
		{"req_p95_ms", "ms", s["req_p95_ms"], fmt.Sprintf("n=%d, %d beyond", int(s["req_samples"]), int(s["req_samples"]*0.05))},
		{"req_per_s", "1/s", s["req_per_s"], ""},
		{"dse_gen_s", "s", s["dse_gen_s.untraced"], "serve-mixed only"},
		{"peak_rss_mb", "MB", s["peak_rss_mb"], ""},
		{"fail_ratio", "ratio", ratio(float64(failed), float64(attempted)), fmt.Sprintf("%d/%d", failed, attempted)},
	}
	for _, l := range lines {
		fmt.Fprintf(w, "  %-22s %14.6g %-5s %s\n", l.name, l.v, l.unit, l.note)
	}
}

// writeRecord stores the full result with its host record, and the Chrome
// trace of the last traced round, under dir.
func writeRecord(dir, name string, seed int64, trace int, host hostRecord, res result, rounds []*roundResult, rec *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	type roundTimes struct {
		SetupS float64 `json:"setup_s"`
		WallS  float64 `json:"wall_s"`
		Traced bool    `json:"traced"`
	}
	var rt []roundTimes
	for _, rr := range rounds {
		rt = append(rt, roundTimes{rr.setup.Seconds(), rr.wall.Seconds(), rr.traced})
	}
	data, err := json.MarshalIndent(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Host     hostRecord   `json:"host"`
		Result   result       `json:"result"`
		Rounds   []roundTimes `json:"rounds"`
	}{name, seed, host, res, rt}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	f, err := os.Create(stem + ".trace.json")
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f, "perfbench "+name); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
