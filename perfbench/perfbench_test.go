package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"heteronoc/internal/obs"
)

// TestSeededInputs pins the seed contract: the same seed gives identical
// run lists, request streams and placements, and a different seed gives
// different ones.
func TestSeededInputs(t *testing.T) {
	gens := map[string]func(int64) any{
		"noc-synth":   func(s int64) any { return genNocSynth(s) },
		"cmp-apps":    func(s int64) any { return genCmpApps(s) },
		"serve-mixed": func(s int64) any { return genServeMixed(s) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different input sets", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave identical input sets", name)
		}
	}
	// The parts each seed draws, checked one by one.
	a, b := genNocSynth(7), genNocSynth(8)
	if a.Runs[0].Seed == b.Runs[0].Seed || a.Reliable.PlanSeed == b.Reliable.PlanSeed {
		t.Error("noc-synth: traffic or fault-plan seeds do not depend on the seed")
	}
	if genCmpApps(7).Workloads[0].BaseLine == genCmpApps(8).Workloads[0].BaseLine {
		t.Error("cmp-apps: address-space placement does not depend on the seed")
	}
	if reflect.DeepEqual(genServeMixed(7).Stream, genServeMixed(8).Stream) {
		t.Error("serve-mixed: request stream does not depend on the seed")
	}
}

// TestSeedsCostTheSame checks what the spread bounds rely on: seeds move
// inputs, never the amount of work.
func TestSeedsCostTheSame(t *testing.T) {
	for seed := int64(1); seed < 20; seed++ {
		n := genNocSynth(seed)
		if len(n.Runs) != len(genNocSynth(1).Runs) {
			t.Fatalf("seed %d: run count changed", seed)
		}
		s := genServeMixed(seed)
		distinct := map[serveRequest]bool{}
		for _, r := range s.Stream {
			distinct[r] = true
		}
		if len(s.Stream) != uniques+repeats || len(distinct) != uniques {
			t.Errorf("seed %d: stream of %d requests, %d distinct", seed, len(s.Stream), len(distinct))
		}
	}
}

// TestPerturbedExpectationIsCaught runs one real noc-synth round at the
// default seed: it must match expected.json, and a single perturbed
// expectation must be reported as a failed operation.
func TestPerturbedExpectationIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full noc-synth round")
	}
	b, err := newNocSynth(genNocSynth(defaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	rr, err := b.round(scope{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := []*roundResult{rr}
	want := expected["noc-synth"]
	if _, failed, notes := check(rounds, want); failed != 0 {
		t.Fatalf("default seed does not match expected.json: %v", notes)
	}
	perturbed := map[string]string{}
	for k, v := range want {
		perturbed[k] = v
	}
	perturbed["ur-knee/Diagonal+BL"] = "0000000000000000"
	_, failed, notes := check(rounds, perturbed)
	if failed != 1 || !strings.Contains(notes[0], "ur-knee/Diagonal+BL") {
		t.Fatalf("perturbed expectation: %d failures %v, want exactly the perturbed op", failed, notes)
	}
}

// TestCheckCatchesDrift covers the other failure paths on synthetic rounds:
// an error, a fingerprint that changes between rounds, and a broken
// invariant each count as a failed operation.
func TestCheckCatchesDrift(t *testing.T) {
	r0, r1 := newRound(), newRound()
	r0.add("a", time.Millisecond, "x", nil)
	r1.add("a", time.Millisecond, "y", nil)
	r1.add("b", time.Millisecond, "", os.ErrNotExist)
	r1.fail("invariant")
	attempted, failed, _ := check([]*roundResult{r0, r1}, nil)
	if attempted != 4 || failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", attempted, failed)
	}
}

// TestSelfTimesAndChromeTrace builds a span tree by hand, with two
// concurrent children, and checks self times and the exported trace.
func TestSelfTimesAndChromeTrace(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{tracks: 3, spans: []spanRec{
		{name: "round", layer: "bench", start: 0, end: 10 * ms, parent: -1},
		{name: "a", layer: "serve", start: 1 * ms, end: 6 * ms, parent: 0, track: 1},
		{name: "b", layer: "dse", start: 2 * ms, end: 8 * ms, parent: 0, track: 2},
		{name: "c", layer: "serve", start: 3 * ms, end: 5 * ms, parent: 2, track: 2},
	}}
	got := r.selfTimes()
	want := map[string]time.Duration{"bench": 3 * ms, "serve": 7 * ms, "dse": 4 * ms}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, got[l], d)
		}
	}
	if got["noc"] != 0 {
		t.Errorf("unused layer has self time %v", got["noc"])
	}
	var buf bytes.Buffer
	if err := r.writeChrome(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1+3+2*4 {
		t.Errorf("trace has %d events, want %d", n, 1+3+2*4)
	}
}

// TestResultContract runs the fastest workload end to end through run()
// and checks the result line against BENCHMARK.json: exactly the four
// keys, and exactly the end-to-end (untraced) or per-layer (traced)
// metrics with their units.
func TestResultContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs serve-mixed rounds")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, list := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "serve-mixed", "--seconds", "0", "--trace", trace, "--out", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Fatalf("result keys %v", keys)
		}
		var res result
		json.Unmarshal([]byte(lines[len(lines)-1]), &res)
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("trace %s: result %+v: %s", trace, res, errOut.String())
		}
		if len(res.Metrics) != len(list) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(list))
		}
		for _, m := range list {
			if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s: got %+v, want unit %s", trace, m.Name, v, m.Unit)
			}
		}
	}
}

// TestRunRejectsBadArguments keeps the harness's exit codes honest.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "noc-synth", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
