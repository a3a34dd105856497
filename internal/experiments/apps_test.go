package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// cmpTiny is an even smaller scale for the CMP sweeps, which multiply
// benchmarks by layouts.
func cmpTiny() Scale {
	s := tiny()
	s.Name = "cmp-tiny"
	s.CMPWarmupEntries = 25000
	s.CMPCycles = 6000
	return s
}

func TestFig10TorusBenefitSmaller(t *testing.T) {
	if testing.Short() {
		t.Skip("CMP sweep")
	}
	r, err := Fig10(context.Background(), cmpTiny())
	if err != nil {
		t.Fatal(err)
	}
	mesh := r.Metrics["mesh_avg_reduction_pct"]
	torus := r.Metrics["torus_avg_reduction_pct"]
	if mesh <= 0 {
		t.Errorf("mesh latency reduction %.1f%%, want positive", mesh)
	}
	// Known deviation (see Fig10 report text and EXPERIMENTS.md): the
	// paper reports ~44% smaller torus benefit; our dateline-VC torus
	// benefits as much or more. Assert only that heterogeneity does not
	// hurt the torus and that the comparison ran on both topologies.
	if torus < -3 {
		t.Errorf("torus latency reduction %.1f%%, want not clearly negative", torus)
	}
	if _, ok := r.Metrics["torus_benefit_vs_mesh_pct"]; !ok {
		t.Error("missing torus-vs-mesh metric")
	}
}

func TestFig11And12(t *testing.T) {
	if testing.Short() {
		t.Skip("CMP sweep")
	}
	r11, err := Fig11(context.Background(), cmpTiny())
	if err != nil {
		t.Fatal(err)
	}
	r12, err := Fig12(context.Background(), cmpTiny())
	if err != nil {
		t.Fatal(err)
	}
	// Latency reduction for the best designs must be positive.
	if v := r11.Metrics["diagonal_bl_latency_reduction_pct"]; v <= 0 {
		t.Errorf("Diagonal+BL app latency reduction %.1f%%, want positive (paper 18.5%%)", v)
	}
	if v := r11.Metrics["diagonal_bl_power_reduction_pct"]; v <= 5 {
		t.Errorf("Diagonal+BL app power reduction %.1f%%, want > 5%% (paper ~22%%)", v)
	}
	// IPC: +BL designs should not lose IPC on either suite.
	for _, k := range []string{"commercial_diagonal_bl_ipc_pct", "parsec_diagonal_bl_ipc_pct"} {
		if v := r12.Metrics[k]; v < -1 {
			t.Errorf("%s = %.1f%%, want non-negative (paper +12%%/+10%%)", k, v)
		}
	}
	if !strings.Contains(r11.Markdown(), "Latency breakdown") {
		t.Error("fig11 missing breakdown section")
	}
	if !strings.Contains(r12.Markdown(), "PARSEC") {
		t.Error("fig12 missing PARSEC section")
	}
}

// TestFig11And12Concurrent runs the two figures of one CMP sweep at the
// same time, as a server's workers do when fig11 and fig12 requests
// arrive together. Under -race it catches any state the two share outside
// runcache's lock.
func TestFig11And12Concurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("CMP sweep")
	}
	sc := tiny()
	sc.Name = "fig11-12-concurrent"
	sc.CMPWarmupEntries = 200
	sc.CMPCycles = 200
	var wg sync.WaitGroup
	reps := make([]*Report, 2)
	errs := make([]error, 2)
	for i, fig := range []func(context.Context, Scale) (*Report, error){Fig11, Fig12} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = fig(context.Background(), sc)
		}()
	}
	wg.Wait()
	for i, id := range []string{"fig11", "fig12"} {
		if errs[i] != nil {
			t.Fatalf("%s: %v", id, errs[i])
		}
		if reps[i].ID != id {
			t.Errorf("report %d is %q, want %q", i, reps[i].ID, id)
		}
	}
}

func TestFig13PlacementOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("CMP sweep")
	}
	r, err := Fig13(context.Background(), cmpTiny())
	if err != nil {
		t.Fatal(err)
	}
	dh := r.Metrics["diamond_homo_rtt_reduction_pct"]
	dhet := r.Metrics["diamond_hetero_rtt_reduction_pct"]
	diag := r.Metrics["diagonal_hetero_rtt_reduction_pct"]
	// Paper ordering: Diagonal_heteroNoC (28%) > Diamond_heteroNoC (22%) >
	// Diamond_homoNoC (8%). Require the qualitative ordering with slack.
	if dhet <= dh-2 {
		t.Errorf("Diamond_heteroNoC (%.1f%%) should beat Diamond_homoNoC (%.1f%%)", dhet, dh)
	}
	if diag <= dh-2 {
		t.Errorf("Diagonal_heteroNoC (%.1f%%) should beat Diamond_homoNoC (%.1f%%)", diag, dh)
	}
	// Jitter: every distributed placement must cut the CoV well below the
	// corner baseline. (The diamond-vs-diagonal ordering is within noise
	// in our runs — see EXPERIMENTS.md E10.)
	if r.Metrics["diagonal_heteronoc_mc_cov"] > r.Metrics["corners_homonoc_reference_mc_cov"] {
		t.Errorf("diagonal CoV %.3f not below the corner baseline %.3f",
			r.Metrics["diagonal_heteronoc_mc_cov"], r.Metrics["corners_homonoc_reference_mc_cov"])
	}
}

func TestFig14TableRoutingHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("CMP sweep")
	}
	r, err := Fig14(context.Background(), cmpTiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"homonoc_xy_weighted", "heteronoc_xy_weighted", "heteronoc_table_xy_weighted"} {
		v, ok := r.Metrics[k]
		if !ok || v <= 0 || v > 2.5 {
			t.Errorf("%s = %v, want in (0, 2.5]", k, v)
		}
	}
	// Table routing should not lose weighted speedup vs HomoNoC (the
	// plain HeteroNoC-XY delta is within noise; see EXPERIMENTS.md E11).
	if r.Metrics["heteronoc_table_xy_weighted"] < r.Metrics["homonoc_xy_weighted"]-0.05 {
		t.Errorf("table routing weighted speedup %.3f below homo %.3f",
			r.Metrics["heteronoc_table_xy_weighted"], r.Metrics["homonoc_xy_weighted"])
	}
}
