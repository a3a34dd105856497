package obs

import (
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	var hits int64 = 41
	r.RegisterCounter("cache_hits_total", "cache hits", nil, func() float64 { return float64(hits) })
	r.RegisterGauge("link_utilization", "mean link busy fraction",
		[]Label{L("router", "3")}, func() float64 { return 0.25 })
	r.RegisterGauge("link_utilization", "mean link busy fraction",
		[]Label{L("router", "4")}, func() float64 { return 0.5 })
	hits++
	out := string(r.Exposition())
	for _, want := range []string{
		"# HELP cache_hits_total cache hits",
		"# TYPE cache_hits_total counter",
		"cache_hits_total 42",
		"# TYPE link_utilization gauge",
		`link_utilization{router="3"} 0.25`,
		`link_utilization{router="4"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	r.RegisterHistogram("latency_cycles", "packet latency", nil,
		[]float64{1, 2, 4}, func() HistSnapshot {
			return HistSnapshot{Buckets: []uint64{3, 0, 2}, Overflow: 1, Sum: 21, Count: 6}
		})
	out := string(r.Exposition())
	for _, want := range []string{
		`latency_cycles_bucket{le="1"} 3`,
		`latency_cycles_bucket{le="2"} 3`,
		`latency_cycles_bucket{le="4"} 5`,
		`latency_cycles_bucket{le="+Inf"} 6`,
		"latency_cycles_sum 21",
		"latency_cycles_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter("a_total", "a", nil, func() float64 { return 1 })
	r.RegisterGauge("b", "b with \"quotes\"", []Label{L("x", `v"1\n`)}, func() float64 { return -2.5 })
	r.RegisterHistogram("h", "h", nil, []float64{1, 10}, func() HistSnapshot {
		return HistSnapshot{Buckets: []uint64{1, 2}, Overflow: 0, Sum: 12, Count: 3}
	})
	if _, err := ValidatePrometheusText(string(r.Exposition())); err != nil {
		t.Fatal(err)
	}
}

func TestValidatePrometheusTextRejectsGarbage(t *testing.T) {
	for name, text := range map[string]string{
		"empty":          "",
		"undeclared":     "foo 1\n",
		"malformed":      "# TYPE foo gauge\nfoo{ 1\n",
		"bad TYPE":       "# TYPE foo\nfoo 1\n",
		"no sample line": "# TYPE foo gauge\n",
	} {
		if _, err := ValidatePrometheusText(text); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	r := NewRegistry()
	r.RegisterGauge("ok", "", nil, func() float64 { return 0 })
	for name, fn := range map[string]func(){
		"invalid name":     func() { r.RegisterGauge("bad name", "", nil, func() float64 { return 0 }) },
		"duplicate series": func() { r.RegisterGauge("ok", "", nil, func() float64 { return 0 }) },
		"kind mismatch":    func() { r.RegisterCounter("ok", "", []Label{L("a", "b")}, func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
