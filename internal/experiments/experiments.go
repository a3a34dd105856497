// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each experiment
// returns a Report containing a human-readable markdown rendering plus a
// metric map that the tests, benchmarks and EXPERIMENTS.md generator key
// off. Scale presets trade fidelity for runtime: Full approximates the
// paper's measurement sizes, Quick keeps CI fast.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"heteronoc/internal/plot"
)

// Scale sizes the simulations.
type Scale struct {
	Name string
	// Network-only experiments.
	WarmupPackets  int
	MeasurePackets int
	// Load sweep points for Figures 7/9 (injection rates are derived).
	SweepPoints int
	// CMP experiments.
	CMPWarmupEntries int
	CMPCycles        int64
	// DSE bounds.
	DSEPackets    int
	DSECandidates int
	// Multi-objective DSE search (the dse-search extension).
	DSESearchPop    int
	DSESearchGens   int
	DSESearchBudget int
}

// Quick is the CI-sized preset.
func Quick() Scale {
	return Scale{
		Name:             "quick",
		WarmupPackets:    200,
		MeasurePackets:   3000,
		SweepPoints:      5,
		CMPWarmupEntries: 15000,
		CMPCycles:        8000,
		DSEPackets:       300,
		DSECandidates:    10,
		DSESearchPop:     12,
		DSESearchGens:    6,
		DSESearchBudget:  120,
	}
}

// Full approximates the paper's methodology (1k warmup / 100k measured
// packets; tens of thousands of CMP cycles after functional warmup).
func Full() Scale {
	return Scale{
		Name:             "full",
		WarmupPackets:    1000,
		MeasurePackets:   100000,
		SweepPoints:      10,
		CMPWarmupEntries: 40000,
		CMPCycles:        30000,
		DSEPackets:       2000,
		DSECandidates:    200,
		DSESearchPop:     24,
		DSESearchGens:    40,
		DSESearchBudget:  900,
	}
}

// Figure is one chart attached to a report. It renders only when asked:
// most readers of a report (the markdown, the fingerprint, nocserved's
// /run) never look at its figures.
type Figure struct {
	// Name is the file stem, e.g. "fig7a_latency".
	Name  string
	chart plot.Chart
}

// SVG renders the figure as a standalone SVG document.
func (f Figure) SVG() string { return f.chart.SVG() }

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	body  strings.Builder
	// Metrics holds the headline numbers, keyed by stable names used in
	// tests and EXPERIMENTS.md.
	Metrics map[string]float64
	// Figures holds the regenerated paper figures (rendered and written
	// by cmd/experiments -figdir).
	Figures []Figure
}

// AddFigure attaches a chart under a file stem. The chart keeps
// referencing its data, which the caller must leave untouched.
func (r *Report) AddFigure(name string, c plot.Chart) {
	r.Figures = append(r.Figures, Figure{Name: name, chart: c})
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: map[string]float64{}}
}

// Printf appends formatted markdown to the report body.
func (r *Report) Printf(format string, args ...any) {
	fmt.Fprintf(&r.body, format, args...)
}

// Body returns the rendered markdown.
func (r *Report) Body() string { return r.body.String() }

// Markdown renders the full report section.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	b.WriteString(r.body.String())
	if len(r.Metrics) > 0 {
		b.WriteString("\nKey metrics:\n\n")
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "- `%s` = %.4g\n", k, r.Metrics[k])
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Runner names an experiment generator. Run observes its context at
// cycle-batch granularity: a cancelled context stops the underlying
// simulations within one batch.
type Runner struct {
	ID   string
	Name string
	Run  func(ctx context.Context, sc Scale) (*Report, error)
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig1", "Buffer and link utilization heat maps (8x8 mesh, UR)", Fig1},
		{"fig2", "Buffer utilization in concentrated mesh and flattened butterfly", Fig2},
		{"table1", "Router design points and resource accounting", func(context.Context, Scale) (*Report, error) { return Table1() }},
		{"fig7", "UR load sweep: latency, throughput, power", Fig7},
		{"fig8", "UR latency and power breakdowns", Fig8},
		{"fig9", "Nearest-neighbor anomaly", Fig9},
		{"fig10", "Mesh vs torus latency reduction", Fig10},
		{"fig11", "Application latency and power", Fig11},
		{"fig12", "IPC improvement", Fig12},
		{"fig13", "Memory-controller placement co-evaluation", Fig13},
		{"fig14", "Asymmetric CMP with table-based routing", Fig14},
		{"dse", "4x4 design-space exploration", DSE},
	}
}

// ByID finds an experiment runner among the paper experiments and the
// extensions.
func ByID(id string) (Runner, error) {
	for _, r := range AllWithExtensions() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
