package noc

import (
	"strings"
	"testing"

	"heteronoc/internal/obs"
)

func TestRegisterMetricsExposition(t *testing.T) {
	n := newMeshNet(t)
	for i := 0; i < 30; i++ {
		n.Inject(&Packet{Src: i % 64, Dst: (i*13 + 7) % 64, NumFlits: 4})
	}
	runUntilQuiesced(t, n, 10000)

	reg := obs.NewRegistry()
	n.RegisterMetrics(reg)
	out := string(reg.Exposition())
	if _, err := obs.ValidatePrometheusText(out); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
	for _, want := range []string{
		"noc_packets_received_total 30",
		"noc_packets_injected_total 30",
		"noc_flits_in_network 0",
		`noc_router_link_utilization{router="0"}`,
		`noc_router_buffer_occupancy{router="63"}`,
		"noc_packet_latency_cycles_count 30",
		`noc_packet_latency_cycles_bucket{le="+Inf"} 30`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestRegisterMetricsLabelsDisambiguate(t *testing.T) {
	a, b := newMeshNet(t), newMeshNet(t)
	reg := obs.NewRegistry()
	a.RegisterMetrics(reg, obs.L("net", "a"))
	b.RegisterMetrics(reg, obs.L("net", "b"))
	out := string(reg.Exposition())
	if !strings.Contains(out, `noc_cycles_total{net="a"}`) ||
		!strings.Contains(out, `noc_cycles_total{net="b"}`) {
		t.Fatalf("labeled series missing:\n%s", out)
	}
}

func TestSamplerWindows(t *testing.T) {
	n := newMeshNet(t)
	s := NewSampler(n, 50)
	s.Attach()
	for cycle := 0; cycle < 400; cycle++ {
		if cycle%3 == 0 {
			n.Inject(&Packet{Src: cycle % 64, Dst: (cycle*29 + 1) % 64, NumFlits: 2})
		}
		if cycle == 200 {
			n.ResetStats() // sampler must survive the counter reset
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ts := s.Series()
	if ts.Len() != 8 {
		t.Fatalf("sampled %d windows over 400 cycles at stride 50, want 8", ts.Len())
	}
	if want := 5 + 2*64; len(ts.Columns) != want {
		t.Fatalf("%d columns, want %d", len(ts.Columns), want)
	}
	var injected, util float64
	for i, row := range ts.Rows {
		for j, v := range row {
			if v < 0 {
				t.Fatalf("negative sample %s=%v in window %d (reset handling broken)",
					ts.Columns[j], v, i)
			}
		}
		injected += row[2]
		util += row[5+64] // link_util_r0
	}
	if injected == 0 {
		t.Fatal("no flit injections sampled")
	}
	if ts.Cycles[0] != 50 || ts.Cycles[7] != 400 {
		t.Fatalf("sample cycles %v", ts.Cycles)
	}
	_ = util
}

func TestSamplerDefaultStride(t *testing.T) {
	n := newMeshNet(t)
	s := NewSampler(n, 0)
	s.Attach()
	for cycle := 0; cycle < 2500; cycle++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Series().Len(); got != 2 {
		t.Fatalf("default stride sampled %d windows over 2500 cycles, want 2", got)
	}
}
