package experiments

import (
	"context"
	"strings"
	"testing"

	"heteronoc/internal/runcache"
)

// dseSearchTiny keeps the four-part experiment to well under a couple of
// seconds: these tests pin the machinery (metrics, cache repeatability),
// not the full-scale search quality numbers.
func dseSearchTiny() Scale {
	return Scale{
		Name:            "dsesearch-tiny",
		DSEPackets:      200,
		DSESearchPop:    4,
		DSESearchGens:   1,
		DSESearchBudget: 10,
	}
}

func TestDSESearchReportsAllParts(t *testing.T) {
	runcache.Reset()
	defer runcache.Reset()
	r, err := DSESearch(context.Background(), dseSearchTiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"search4x4_evals", "search4x4_best_latency", "search4x4_evals_pct_of_space",
		"search8x8_evals", "diagonal8x8_latency", "diagonal8x8_gap_pct",
		"search16x16_evals", "repeat_search_evals", "repeat_search_executions",
	} {
		if _, ok := r.Metrics[key]; !ok {
			t.Errorf("missing metric %s", key)
		}
	}
	if r.Metrics["search4x4_evals"] == 0 {
		t.Error("4x4 search ran no evaluations")
	}
	if r.Metrics["diagonal8x8_feasible"] != 1 {
		t.Error("diagonal placement saturated under the mixed probe")
	}
	// The part-D repeat must answer every probe from cache.
	if got := r.Metrics["repeat_search_executions"]; got != 0 {
		t.Errorf("repeated search ran %.0f simulations, want 0", got)
	}
	for _, section := range []string{"### A.", "### B.", "### C.", "### D."} {
		if !strings.Contains(r.Body(), section) {
			t.Errorf("report body missing section %q", section)
		}
	}
}

// TestRepeatSentenceNamesWhyProbesRan pins part D's two wordings: the
// warm-cache heading and sentence are unchanged, and neither the heading
// nor the sentence of a repeat that simulated (the run cache off or cold)
// claims the cache answered it.
func TestRepeatSentenceNamesWhyProbesRan(t *testing.T) {
	warm := "### D. Repeatability: the same search answered from cache\n\n" +
		"Re-running the part-A search from scratch (no frontier file, archive discarded) re-requested 72 evaluations and ran 0 simulations — every probe answered by the run cache.\n"
	if got := repeatSentence(72, 0); got != warm {
		t.Errorf("warm repeat reads %q, want %q", got, warm)
	}
	cold := "### D. Repeatability: the same search simulated again\n\n" +
		"Re-running the part-A search from scratch (no frontier file, archive discarded) re-requested 72 evaluations and ran 72 simulations, because the run cache was off or cold.\n"
	if got := repeatSentence(72, 72); got != cold {
		t.Errorf("uncached repeat reads %q, want %q", got, cold)
	}
}
