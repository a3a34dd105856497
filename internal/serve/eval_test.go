package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"heteronoc/internal/dse"
	"heteronoc/internal/runcache"
)

func evalTestCfg() dse.EvalConfig {
	return dse.EvalConfig{
		W: 4, H: 4, LinkRedist: true,
		InjectionRate: 0.05, Packets: 200, Seed: 3,
	}
}

// TestEvalEndpointScoresBatch drives the /eval round trip: a batch comes
// back index-aligned with real objectives, and repeating it is answered
// entirely from the server's shared cache.
func TestEvalEndpointScoresBatch(t *testing.T) {
	runcache.Reset()
	defer runcache.Reset()
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := &Client{BaseURL: ts.URL}
	sets := [][]int{{0, 5, 10, 15}, {0, 1, 2, 3}, {0, 3, 12, 15}}
	req := EvalRequest{Cfg: evalTestCfg(), Sets: sets, TimeoutSec: 60}
	resp, err := c.Eval(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != len(sets) {
		t.Fatalf("got %d candidates for %d sets", len(resp.Candidates), len(sets))
	}
	for i, cd := range resp.Candidates {
		if fmt.Sprint(cd.Big) != fmt.Sprint(sets[i]) {
			t.Errorf("candidate %d echoes %v, want %v", i, cd.Big, sets[i])
		}
		if cd.LatencyNS <= 0 || cd.PowerW <= 0 || cd.AreaMM2 <= 0 {
			t.Errorf("candidate %d has degenerate objectives: %+v", i, cd)
		}
	}
	if resp.FromCache {
		t.Fatal("cold batch claims it was served from cache")
	}

	again, err := c.Eval(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.FromCache {
		t.Fatalf("repeated batch not served from cache: %+v", again.Cache)
	}
	for i := range sets {
		if fmt.Sprintf("%+v", again.Candidates[i]) != fmt.Sprintf("%+v", resp.Candidates[i]) {
			t.Errorf("cached candidate %d differs: %+v vs %+v", i, again.Candidates[i], resp.Candidates[i])
		}
	}
}

// TestEvalRejectsBadBatches pins the 400 surface: empty batches and absurd
// mesh dims are refused before touching the queue.
func TestEvalRejectsBadBatches(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, MaxAttempts: 1}

	big := evalTestCfg()
	big.W, big.H = 33, 33
	cases := []EvalRequest{
		{Cfg: evalTestCfg()}, // no sets
		{Cfg: dse.EvalConfig{W: 0, H: 4}, Sets: [][]int{{0}}}, // bad dims
		{Cfg: evalTestCfg(), Sets: [][]int{{0, 1000}}},        // router beyond the mesh
		{Cfg: evalTestCfg(), Sets: [][]int{{-1, 3}}},          // negative router
		{Cfg: dse.EvalConfig{W: 1, H: 4}, Sets: [][]int{{0}}}, // 1x4 mesh
		{Cfg: big, Sets: [][]int{{0}}},                        // mesh above the limit
	}
	for i, req := range cases {
		_, err := c.Eval(context.Background(), req)
		var api *APIError
		if !errors.As(err, &api) || api.Code != http.StatusBadRequest {
			t.Errorf("case %d: got %v, want 400", i, err)
		}
	}
}

// TestRemoteSearchMatchesLocal is the fan-out equivalence gate: the same
// seeded search produces the identical Pareto front whether candidates are
// scored in-process or POSTed to a nocserved worker.
func TestRemoteSearchMatchesLocal(t *testing.T) {
	runcache.Reset()
	defer runcache.Reset()
	srv := New(Config{Workers: 2, DefaultTimeout: time.Minute})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := dse.SearchConfig{
		Eval:   evalTestCfg(),
		MinBig: 3, MaxBig: 4,
		PopSize: 6, Generations: 2,
		Seed: 11,
	}
	local, err := dse.Search(base)
	if err != nil {
		t.Fatal(err)
	}

	remoteCfg := base
	re := &RemoteEvaluator{Client: &Client{BaseURL: ts.URL}, Tenant: "search-test"}
	remoteCfg.Evaluator = re
	remote, err := dse.Search(remoteCfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.Batches.Load() == 0 {
		t.Fatal("remote evaluator never posted a batch")
	}
	if fmt.Sprint(local.Front) != fmt.Sprint(remote.Front) {
		t.Fatalf("remote front differs from local:\n%v\nvs\n%v", remote.Front, local.Front)
	}
	// The local run populated the process-wide cache, so every remote
	// batch should have been answered without new simulation work.
	if re.WarmBatches.Load() != re.Batches.Load() {
		t.Fatalf("%d of %d remote batches answered warm; cache sharing broken",
			re.WarmBatches.Load(), re.Batches.Load())
	}
}
