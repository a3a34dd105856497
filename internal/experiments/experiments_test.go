package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"heteronoc/internal/runcache"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{
		Name:             "tiny",
		WarmupPackets:    100,
		MeasurePackets:   1200,
		SweepPoints:      3,
		CMPWarmupEntries: 6000,
		CMPCycles:        3000,
		DSEPackets:       200,
		DSECandidates:    5,
	}
}

func TestFig1HotCenter(t *testing.T) {
	r, err := Fig1(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["buffer_center_periphery_ratio"] <= 1.2 {
		t.Errorf("buffer center/periphery ratio %.2f, want > 1.2 (paper ~2x)",
			r.Metrics["buffer_center_periphery_ratio"])
	}
	if r.Metrics["link_center_periphery_ratio"] <= 1.2 {
		t.Errorf("link center/periphery ratio %.2f, want > 1.2",
			r.Metrics["link_center_periphery_ratio"])
	}
	if !strings.Contains(r.Markdown(), "Buffer utilization") {
		t.Error("report missing heat map")
	}
}

func TestFig2NonUniform(t *testing.T) {
	r, err := Fig2(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["cmesh_center_periphery_ratio"] <= 1.0 {
		t.Errorf("cmesh ratio %.2f, want > 1", r.Metrics["cmesh_center_periphery_ratio"])
	}
	if _, ok := r.Metrics["fbfly_center_periphery_ratio"]; !ok {
		t.Error("fbfly metric missing")
	}
}

func TestTable1ExactNumbers(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"buffer_bits_homo":         921600,
		"buffer_bits_hetero":       614400,
		"buffer_bit_reduction_pct": 100.0 / 3,
		"total_vcs":                960,
		"min_small_routers":        38,
		"cal_power_baseline":       0.67,
		"cal_power_small":          0.30,
		"cal_power_big":            1.19,
	}
	for k, want := range checks {
		got, ok := r.Metrics[k]
		if !ok {
			t.Errorf("metric %s missing", k)
			continue
		}
		if diff := got - want; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
}

func TestFig7HeteroWins(t *testing.T) {
	r, err := Fig7(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The +BL designs must reduce average pre-saturation latency and
	// power versus the baseline.
	for _, cfg := range []string{"center_bl", "diagonal_bl"} {
		if v := r.Metrics[cfg+"_latency_reduction_pct"]; v <= 0 {
			t.Errorf("%s latency reduction %.1f%%, want positive (paper ~21-24%%)", cfg, v)
		}
		if v := r.Metrics[cfg+"_power_reduction_pct"]; v <= 5 {
			t.Errorf("%s power reduction %.1f%%, want > 5%% (paper ~21.5-28%%)", cfg, v)
		}
	}
}

func TestFig8BlockingReduced(t *testing.T) {
	r, err := Fig8(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["diagonal_bl_blocking"] >= r.Metrics["baseline_blocking"] {
		t.Errorf("Diagonal+BL blocking %.1f not below baseline %.1f",
			r.Metrics["diagonal_bl_blocking"], r.Metrics["baseline_blocking"])
	}
	if r.Metrics["diagonal_bl_buffer_power_reduction_pct"] <= 10 {
		t.Errorf("buffer power reduction %.1f%%, want > 10%% (paper ~33%%)",
			r.Metrics["diagonal_bl_buffer_power_reduction_pct"])
	}
}

func TestFig9CenterBeatsDiagonalOnNN(t *testing.T) {
	r, err := Fig9(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: with NN traffic Center+BL performs better than Diagonal+BL.
	c := r.Metrics["center_bl_latency_reduction_pct"]
	d := r.Metrics["diagonal_bl_latency_reduction_pct"]
	if c < d-1.0 { // allow 1pp noise at tiny scale
		t.Errorf("NN: Center+BL (%.1f%%) should be at least on par with Diagonal+BL (%.1f%%)", c, d)
	}
}

func TestDSEMatchesPaperCounts(t *testing.T) {
	r, err := DSE(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["candidates_04"] != 1820 || r.Metrics["candidates_06"] != 8008 || r.Metrics["candidates_08"] != 12870 {
		t.Errorf("candidate counts wrong: %v", r.Metrics)
	}
	if r.Metrics["explored"] < 5 {
		t.Error("too few candidates explored")
	}
	if r.Metrics["best_latency"] > r.Metrics["worst_latency"] {
		t.Error("ranking inverted")
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig7"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	if len(All()) != 12 {
		t.Errorf("%d experiments, want 12", len(All()))
	}
}

// countingChart is a plot.Chart that counts its renderings.
type countingChart struct{ renders int }

func (c *countingChart) SVG() string {
	c.renders++
	return "<svg></svg>\n"
}

func TestReportMarkdown(t *testing.T) {
	r := newReport("x", "Test")
	r.Printf("hello %d\n", 42)
	r.Metrics["m"] = 1.5
	c := &countingChart{}
	r.AddFigure("x_chart", c)
	md := r.Markdown()
	for _, want := range []string{"## x — Test", "hello 42", "`m` = 1.5"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// The markdown and the fingerprint, all nocserved's /run reads of a
	// report, render no figure; only Figure.SVG does.
	r.Fingerprint()
	if c.renders != 0 {
		t.Fatalf("Markdown and Fingerprint rendered the figure %d times, want 0", c.renders)
	}
	if svg := r.Figures[0].SVG(); svg != "<svg></svg>\n" || c.renders != 1 {
		t.Fatalf("Figure.SVG returned %q after %d renders, want the chart's document after 1", svg, c.renders)
	}
}

func TestFiguresAttached(t *testing.T) {
	r, err := Fig1(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Figures) != 2 {
		t.Fatalf("fig1 has %d figures, want 2", len(r.Figures))
	}
	for _, f := range r.Figures {
		if svg := f.SVG(); !strings.Contains(svg, "<svg") || !strings.Contains(svg, "</svg>") {
			t.Errorf("figure %s is not an SVG document", f.Name)
		}
	}
	r7, err := Fig7(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r7.Figures) != 3 {
		t.Fatalf("fig7 has %d figures, want 3 (latency, power, summary)", len(r7.Figures))
	}
}

// figureSVGDigest is the SHA-256 TestFigureSVGDigest computes. It was
// taken while reports still held their figures as rendered strings, and
// must never change: a difference means a figure's bytes moved, say
// because an experiment changed a chart's data after attaching it.
const figureSVGDigest = "bafb9973d0591dbfbed8bc4e0bbd7e66baad758e20cc7f60306b667ea40ed406"

// TestFigureSVGDigest pins the name and SVG bytes of every figure Fig1,
// Fig2, Fig7 and Fig8 attach at tiny scale.
func TestFigureSVGDigest(t *testing.T) {
	h := sha256.New()
	n := 0
	for _, run := range []func(context.Context, Scale) (*Report, error){Fig1, Fig2, Fig7, Fig8} {
		r, err := run(context.Background(), tiny())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range r.Figures {
			h.Write([]byte(f.Name))
			h.Write([]byte{0})
			h.Write([]byte(f.SVG()))
			h.Write([]byte{0})
			n++
		}
	}
	if n != 9 {
		t.Fatalf("%d figures, want 9", n)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != figureSVGDigest {
		t.Fatalf("figure digest %s, want %s", got, figureSVGDigest)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Two runs of the same experiment must produce identical metrics (the
	// whole stack is seeded; EXPERIMENTS.md promises byte-identical
	// reports). The second run bypasses the run cache: a cache hit would
	// compare the first run with itself.
	a, err := Fig1(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	runcache.SetEnabled(false)
	defer runcache.SetEnabled(true)
	b, err := Fig1(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if a.Body() != b.Body() {
		t.Error("fig1 reports differ between runs")
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s differs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}

func TestScalePresets(t *testing.T) {
	q, f := Quick(), Full()
	if q.MeasurePackets >= f.MeasurePackets {
		t.Error("quick must measure fewer packets than full")
	}
	if q.CMPCycles >= f.CMPCycles {
		t.Error("quick must run fewer CMP cycles than full")
	}
	if f.MeasurePackets != 100000 {
		t.Errorf("full preset must match the paper's 100k measured packets, got %d", f.MeasurePackets)
	}
}

func TestKeyNameNormalization(t *testing.T) {
	cases := map[string]string{
		"Diagonal+BL":                 "diagonal_bl",
		"Row2_5+B":                    "row2_5_b",
		"HeteroNoC-Table+XY":          "heteronoc_table_xy",
		"none (uniform 3VC narrow)":   "none_uniform_3vc_narrow",
		"Corners_homoNoC (reference)": "corners_homonoc_reference",
		"uniform-random":              "uniform_random",
	}
	for in, want := range cases {
		if got := keyName(in); got != want {
			t.Errorf("keyName(%q) = %q, want %q", in, got, want)
		}
	}
}
