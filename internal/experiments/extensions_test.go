package experiments

import (
	"context"
	"testing"
)

func TestAblationRanksMechanisms(t *testing.T) {
	r, err := Ablation(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Removing everything must cost more than removing any single piece...
	none := r.Metrics["none_uniform_3vc_narrow_latency_cost_pct"]
	if none <= 0 {
		t.Errorf("removing all mechanisms cost %.1f%%, want positive", none)
	}
}

func TestSensitivityGuideline(t *testing.T) {
	r, err := Sensitivity(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["guideline_big_16"] != 1 {
		t.Error("16 big routers should satisfy the power guideline")
	}
	if r.Metrics["guideline_big_32"] != 0 {
		t.Error("32 big routers should violate the power guideline")
	}
	if r.Metrics["power_big_32"] <= r.Metrics["power_big_08"] {
		t.Error("power should grow with big-router count")
	}
}

func TestPatternsAllRun(t *testing.T) {
	r, err := Patterns(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"uniform-random", "transpose", "bit-complement", "self-similar"} {
		if _, ok := r.Metrics[keyName(p)+"_latency_reduction_pct"]; !ok {
			t.Errorf("missing pattern %s", p)
		}
	}
	if len(AllWithExtensions()) != 25 {
		t.Errorf("extensions list wrong: %d", len(AllWithExtensions()))
	}
}

func TestGeneralityTransfers(t *testing.T) {
	r, err := Generality(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"cmesh4x4c4_center_latency_reduction_pct",
		"cmesh4x4c4_diagonal_latency_reduction_pct",
		"fbfly4x4c4_center_latency_reduction_pct",
		"fbfly4x4c4_diagonal_latency_reduction_pct",
	} {
		v, ok := r.Metrics[k]
		if !ok {
			t.Fatalf("missing metric %s", k)
		}
		if v <= 0 {
			t.Errorf("%s = %.1f%%, want positive (generality claim)", k, v)
		}
	}
}

func TestAdaptiveKeepsHeteroAdvantage(t *testing.T) {
	r, err := Adaptive(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Metrics["wf_hetero_reduction_pct"]; v <= 0 {
		t.Errorf("hetero advantage under west-first = %.1f%%, want positive", v)
	}
	if v := r.Metrics["xy_hetero_reduction_pct"]; v <= 0 {
		t.Errorf("hetero advantage under X-Y = %.1f%%, want positive", v)
	}
}

func TestPrefetchHelpsStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("CMP runs")
	}
	sc := tiny()
	sc.CMPWarmupEntries = 20000
	sc.CMPCycles = 5000
	r, err := Prefetch(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	// libquantum streams sequentially: the next-line prefetcher must help
	// on at least one layout.
	a := r.Metrics["libquantum_baseline_prefetch_gain_pct"]
	b := r.Metrics["libquantum_diagonal_bl_prefetch_gain_pct"]
	if a <= 0 && b <= 0 {
		t.Errorf("prefetcher never helps libquantum: %.1f%% / %.1f%%", a, b)
	}
}

func TestTailsCompress(t *testing.T) {
	r, err := Tails(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["p99_reduction_pct"] <= 0 {
		t.Errorf("p99 reduction %.1f%%, want positive", r.Metrics["p99_reduction_pct"])
	}
	if r.Metrics["mean_reduction_pct"] <= 0 {
		t.Errorf("mean reduction %.1f%%, want positive", r.Metrics["mean_reduction_pct"])
	}
}

func TestScaleUpDeterministicAndAdvantageous(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-router sweeps")
	}
	r, err := ScaleUp(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["sharded_fingerprint_match"] != 1 {
		t.Error("sharded 32x32 run diverged from the sequential run")
	}
	for _, w := range scaleWidths {
		prefix := "mesh" + map[int]string{16: "16", 32: "32"}[w] + "_"
		for _, k := range []string{"diagonal_latency_reduction_pct", "diagonal_throughput_pct", "diagonal_zeroload_reduction_pct"} {
			if _, ok := r.Metrics[prefix+k]; !ok {
				t.Errorf("missing metric %s", prefix+k)
			}
		}
		if r.Metrics[prefix+"baseline_zeroload_ns"] <= 0 {
			t.Errorf("%dx%d baseline zero-load latency missing", w, w)
		}
	}
	// The hetero advantage needs near-saturation load to show (paper Fig 7);
	// the tiny unit budget stays deep pre-knee, so only bound the zero-load
	// cost of heterogeneity: the sparse diagonal must not be a blowup.
	for _, w := range []string{"mesh16_", "mesh32_"} {
		if v := r.Metrics[w+"diagonal_zeroload_reduction_pct"]; v < -20 {
			t.Errorf("%szero-load penalty %.1f%%, want bounded (> -20%%)", w, v)
		}
	}
}

func TestModelCrossValidates(t *testing.T) {
	r, err := Model(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if w := r.Metrics["worst_ratio"]; w > 1.25 {
		t.Errorf("worst model/simulator disagreement %.2fx, want <= 1.25x", w)
	}
	if r.Metrics["baseline_analytic_saturation"] <= 0 {
		t.Error("missing analytic saturation metric")
	}
}
