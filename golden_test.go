package heteronoc

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"heteronoc/internal/core"
	"heteronoc/internal/noc"
	"heteronoc/internal/traffic"
)

// updateGolden regenerates testdata/golden_kernel.json from the current
// kernel instead of comparing against it:
//
//	go test -run TestGoldenDeterminism -update-golden
//
// Only do this when a change is *supposed* to alter simulated behavior;
// performance work must keep these fingerprints bit-identical.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden kernel fingerprints")

const goldenPath = "testdata/golden_kernel.json"

// goldenCase fixes one simulated scenario completely: layout, traffic,
// seed and cycle count. The fingerprint hashes the full Stats (including
// the per-packet latency histogram and per-class aggregates) plus every
// per-router activity counter, so any behavioral divergence — a packet
// delivered one cycle later, one extra arbiter operation — changes it.
type goldenCase struct {
	name   string
	layout core.Layout
	rate   float64
	flits  int
	cycles int
	seed   int64
}

func goldenCases() []goldenCase {
	return []goldenCase{
		// The homogeneous baseline at a light and a near-saturation load.
		{"baseline8x8_ur_low", core.NewBaseline(8, 8), 0.02, 6, 6000, 1},
		{"baseline8x8_ur_high", core.NewBaseline(8, 8), 0.06, 6, 6000, 2},
		// Diagonal+BL exercises wide links, flit combining and the
		// split-datapath allocator.
		{"diagonalBL_ur_low", core.NewLayout(core.PlacementDiagonal, 8, 8, true), 0.02, 8, 6000, 3},
		{"diagonalBL_ur_high", core.NewLayout(core.PlacementDiagonal, 8, 8, true), 0.06, 8, 6000, 4},
		// Nearest-neighbor keeps most of the mesh idle, the active-set
		// scheduler's best case — and its most delicate one.
		{"diagonalBL_nn", core.NewLayout(core.PlacementDiagonal, 8, 8, true), 0.10, 8, 6000, 5},
		// A 256-router mesh pins the scaled engine (SoA active sets,
		// fixed-span sharded cycle) at a size the paper never reaches. The
		// rate is bisection-scaled to a moderate relative load.
		{"baseline16x16_ur", core.NewBaseline(16, 16), 0.015, 6, 4000, 6},
	}
}

// runGolden drives one scenario for its fixed cycle count and returns the
// network fingerprint.
func runGolden(t *testing.T, c goldenCase) uint64 {
	return runGoldenSharded(t, c, 0)
}

// runGoldenSharded is runGolden with intra-cycle sharding on the given
// worker count (0 = plain sequential kernel).
func runGoldenSharded(t *testing.T, c goldenCase, workers int) uint64 {
	t.Helper()
	net, err := c.layout.Network()
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		net.SetShardWorkers(workers)
		defer net.Close()
	}
	n := c.layout.Mesh.NumTerminals()
	var pattern traffic.Pattern = traffic.UniformRandom{N: n}
	if c.name == "diagonalBL_nn" {
		pattern = traffic.NearestNeighbor{Grid: c.layout.Mesh}
	}
	proc := traffic.Bernoulli{P: c.rate}
	rng := rand.New(rand.NewSource(c.seed))
	for i := 0; i < c.cycles; i++ {
		for term := 0; term < n; term++ {
			if proc.Fire(term, net.Cycle(), rng) {
				net.Inject(&noc.Packet{Src: term, Dst: pattern.Dst(term, rng), NumFlits: c.flits})
			}
		}
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants violated after %d cycles: %v", c.name, c.cycles, err)
	}
	return net.Fingerprint()
}

// TestGoldenDeterminism is the regression gate for kernel optimizations:
// fixed seeds must produce bit-identical statistics (latency, throughput,
// combining, per-router activity) across any rewrite of the cycle kernel.
func TestGoldenDeterminism(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases() {
		got[c.name] = fmt.Sprintf("%016x", runGolden(t, c))
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden fingerprint recorded (run -update-golden)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: fingerprint %s, golden %s — simulated behavior changed", name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden case %s no longer exists", name)
		}
	}
}

// TestGoldenSharded pins the tentpole guarantee of the sharded kernel: with
// intra-cycle sharding enabled at any worker count, every golden scenario
// must fingerprint bit-identically to the recorded sequential run. Run
// under -race this also proves the shard spans really are disjoint.
func TestGoldenSharded(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	for _, c := range goldenCases() {
		for _, w := range workerCounts {
			got := fmt.Sprintf("%016x", runGoldenSharded(t, c, w))
			if got != want[c.name] {
				t.Errorf("%s with %d shard workers: fingerprint %s, golden %s — sharding changed simulated behavior",
					c.name, w, got, want[c.name])
			}
		}
	}
}

// TestGoldenRerunStable guards the harness itself: two back-to-back runs of
// the same scenario in one process must agree, proving the fingerprint does
// not depend on residual global state.
func TestGoldenRerunStable(t *testing.T) {
	c := goldenCases()[0]
	a := runGolden(t, c)
	b := runGolden(t, c)
	if a != b {
		t.Fatalf("same scenario fingerprinted %016x then %016x", a, b)
	}
}
