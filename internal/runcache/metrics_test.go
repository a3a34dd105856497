package runcache

import (
	"context"
	"strings"
	"testing"

	"heteronoc/internal/obs"
)

func TestRegisterMetrics(t *testing.T) {
	Reset()
	defer Reset()
	run := func() { ForCtx(context.Background(), "k", func(context.Context) (any, error) { return 1, nil }) }
	run()
	run()
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	out := string(reg.Exposition())
	if _, err := obs.ValidatePrometheusText(out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"runcache_hits_total 1",
		"runcache_misses_total 1",
		"runcache_entries 1",
		"runcache_enabled 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
