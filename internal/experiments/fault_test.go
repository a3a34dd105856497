package experiments

import (
	"context"
	"testing"

	"heteronoc/internal/core"
	"heteronoc/internal/runcache"
)

// TestReliableDeliveryAcceptance pins the reliability layer's headline
// acceptance criterion: a seeded plan failing 4 links on the 8x8 heterogeneous mesh,
// offered 0.2 flits/node/cycle through the reliability layer, delivers
// 100% of accepted traffic exactly once — and the whole run is
// bit-identical across repeats (network and stats fingerprints). The
// repeat bypasses the run cache, so it is a second execution.
func TestReliableDeliveryAcceptance(t *testing.T) {
	l := core.NewLayout(core.PlacementDiagonal, 8, 8, true)
	rec := faultRecipe(l, degradationPlan(l, 4, degradationSeed+4*3), 0.2/dataFlits,
		Scale{Name: "reliable-acceptance", MeasurePackets: 1000})
	run := func() degResult {
		res, err := runReliable(context.Background(), rec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.Stats.Sent == 0 {
		t.Fatal("no traffic accepted")
	}
	if a.Stats.Delivered != a.Stats.Sent {
		t.Fatalf("delivered %d of %d transfers — reliability layer lost traffic on a connected degraded mesh",
			a.Stats.Delivered, a.Stats.Sent)
	}
	if a.Stats.Abandoned != 0 || a.Stats.Unreachable != 0 {
		t.Fatalf("connected plan produced abandoned=%d unreachable=%d", a.Stats.Abandoned, a.Stats.Unreachable)
	}
	runcache.SetEnabled(false)
	defer runcache.SetEnabled(true)
	b := run()
	if a.NetFP != b.NetFP || a.Stats.Fingerprint() != b.Stats.Fingerprint() {
		t.Fatalf("repeat run not bit-identical: net %x/%x stats %x/%x",
			a.NetFP, b.NetFP, a.Stats.Fingerprint(), b.Stats.Fingerprint())
	}
}

// TestDegradationRetentionCriterion runs the degradation sweep at the
// quick scale and asserts the experiment's claim: from two failed links
// on, the heterogeneous design retains strictly more of its own fault-free
// saturation throughput than the homogeneous baseline retains of its.
func TestDegradationRetentionCriterion(t *testing.T) {
	if testing.Short() {
		t.Skip("full degradation sweep")
	}
	r, err := Degradation(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 8; k++ {
		for _, key := range []string{"delivered_frac_base", "delivered_frac_hetero"} {
			if got := r.Metrics[keyNameInt(key, k)]; got != 1.0 {
				t.Errorf("%s at k=%d: delivered fraction %.4f, want 1.0", key, k, got)
			}
		}
	}
	for k := 2; k <= 8; k++ {
		hetero := r.Metrics[keyNameInt("retention_hetero", k)]
		base := r.Metrics[keyNameInt("retention_base", k)]
		if hetero <= base {
			t.Errorf("k=%d: hetero retention %.3f not strictly above baseline %.3f", k, hetero, base)
		}
	}
	if len(r.Figures) != 2 {
		t.Errorf("degradation report has %d figures, want 2", len(r.Figures))
	}
}
