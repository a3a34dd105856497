package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
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
// back index-aligned with real objectives, repeating it is answered
// entirely from the server's shared cache, and neither batch enters
// /run's metrics.
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
	// Both batches count under endpoint="eval" and stay out of /run's
	// latency window and request series.
	m := string(srv.Registry().Exposition())
	for _, line := range []string{
		"serve_latency_p50_ms 0\n",
		"serve_latency_p99_ms 0\n",
		`serve_requests_total{code="200",endpoint="run"} 0` + "\n",
		`serve_requests_total{code="200",endpoint="eval"} 2` + "\n",
	} {
		if !strings.Contains(m, line) {
			t.Errorf("metrics after two /eval batches lack %q:\n%s", strings.TrimSpace(line), m)
		}
	}
}

// TestEvalRejectsBadBatches pins the 400 surface: empty batches, absurd
// mesh dims and bodies naming a field the server does not know are
// refused before touching the queue.
func TestEvalRejectsBadBatches(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, MaxAttempts: 1}

	big := evalTestCfg()
	big.W, big.H = 33, 33
	with := func(mut func(*dse.EvalConfig)) EvalRequest {
		cfg := evalTestCfg()
		mut(&cfg)
		return EvalRequest{Cfg: cfg, Sets: [][]int{{0}}}
	}
	cases := []EvalRequest{
		{Cfg: evalTestCfg()}, // no sets
		{Cfg: dse.EvalConfig{W: 0, H: 4}, Sets: [][]int{{0}}}, // bad dims
		{Cfg: evalTestCfg(), Sets: [][]int{{0, 1000}}},        // router beyond the mesh
		{Cfg: evalTestCfg(), Sets: [][]int{{-1, 3}}},          // negative router
		{Cfg: dse.EvalConfig{W: 1, H: 4}, Sets: [][]int{{0}}}, // 1x4 mesh
		{Cfg: big, Sets: [][]int{{0}}},                        // mesh above the limit
		with(func(c *dse.EvalConfig) { c.Workload = "bogus" }),
		with(func(c *dse.EvalConfig) { c.InjectionRate = 1.5 }),
		with(func(c *dse.EvalConfig) { c.InjectionRate = -0.1 }),
		with(func(c *dse.EvalConfig) { c.Packets = -5 }),
	}
	for i, req := range cases {
		_, err := c.Eval(context.Background(), req)
		var api *APIError
		if !errors.As(err, &api) || api.Code != http.StatusBadRequest {
			t.Errorf("case %d: got %v, want 400", i, err)
		}
	}
	// A field the probe recipe does not have would otherwise be dropped,
	// scoring another probe than the one asked for.
	for _, field := range []string{`"Bench":"SPECjbb"`, `"MixedAdversarialFrac":0.5`, `"ReduceSymmetry":true`} {
		body := `{"cfg":{"W":4,"H":4,"InjectionRate":0.05,"Packets":200,` + field + `},"sets":[[0]]}`
		resp, err := http.Post(ts.URL+"/eval", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body naming %s: status %d, want 400", field, resp.StatusCode)
		}
	}
}

// TestEvalDeadlineStopsWarmup pins that a probe obeys the batch deadline:
// a 50M-packet probe (its warmup phase alone is 5M packets, minutes of
// simulation) stops within one cycle batch of a 0.2 s deadline and the
// batch fails with the timeout. The bound is the deadline plus set-up,
// so a probe that ignored the deadline fails it on any host.
func TestEvalDeadlineStopsWarmup(t *testing.T) {
	runcache.Reset()
	defer runcache.Reset()
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := evalTestCfg()
	cfg.Packets = 50_000_000
	c := &Client{BaseURL: ts.URL, MaxAttempts: 1}
	start := time.Now()
	_, err := c.Eval(context.Background(), EvalRequest{Cfg: cfg, Sets: [][]int{{0, 5, 10, 15}}, TimeoutSec: 0.2})
	elapsed := time.Since(start)
	var api *APIError
	if !errors.As(err, &api) || api.Code != http.StatusRequestTimeout || api.Payload.Error != "timeout" {
		t.Fatalf("got %v, want 408 timeout", err)
	}
	if elapsed > 450*time.Millisecond {
		t.Fatalf("batch with a 0.2 s deadline took %v: the probe ignored it", elapsed)
	}
}

// TestShutdownCancelsEval pins that a shutdown cancels an in-flight
// /eval batch after the drain grace and answers 503 shutting_down with
// Retry-After, an answer serve.Client retries against the restarted
// server.
func TestShutdownCancelsEval(t *testing.T) {
	runcache.Reset()
	defer runcache.Reset()
	srv := New(Config{Workers: 1, DrainGrace: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := evalTestCfg()
	cfg.Packets = 50_000_000 // minutes of simulation if left alone
	c := &Client{BaseURL: ts.URL, MaxAttempts: 1}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Eval(context.Background(), EvalRequest{Cfg: cfg, Sets: [][]int{{0, 5, 10, 15}}})
		errc <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.busy.Load() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	var api *APIError
	if err := <-errc; !errors.As(err, &api) || api.Code != http.StatusServiceUnavailable ||
		api.Payload.Error != "shutting_down" || api.Payload.RetryAfterSec <= 0 {
		t.Fatalf("in-flight batch at shutdown: got %v, want 503 shutting_down with Retry-After", err)
	}
}

// TestClientRetriesShutdownAcrossRestart drives a restart under a
// waiting client: a batch queued on a server whose shutdown hard-cancels
// it gets the shutdown answer on its first attempt, and Client.Eval's
// retry is served by a fresh Server swapped in behind the same listener.
func TestClientRetriesShutdownAcrossRestart(t *testing.T) {
	runcache.Reset()
	defer runcache.Reset()
	old := New(Config{
		Workers: 1, RetryAfter: 20 * time.Millisecond,
		DrainGrace: 50 * time.Millisecond,
	})
	fresh := New(Config{Workers: 1})
	defer fresh.Shutdown(context.Background())
	var cur atomic.Pointer[Server]
	cur.Store(old)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	// Occupy the old server's only worker with a batch that would run
	// for minutes, then queue the batch under test behind it.
	long := evalTestCfg()
	long.Packets = 50_000_000
	blocked := make(chan error, 1)
	go func() {
		blocker := &Client{BaseURL: ts.URL, MaxAttempts: 1}
		_, err := blocker.Eval(context.Background(), EvalRequest{Cfg: long, Sets: [][]int{{0, 5, 10, 15}}})
		blocked <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return old.busy.Load() == 1 })
	c := &Client{BaseURL: ts.URL, MaxAttempts: 2}
	type result struct {
		resp *EvalResponse
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := c.Eval(context.Background(), EvalRequest{Tenant: "search", Cfg: evalTestCfg(), Sets: [][]int{{0, 5, 10, 15}}})
		got <- result{resp, err}
	}()
	waitFor(t, 5*time.Second, func() bool { return old.sched.depth() == 1 })

	// Restart: new connections reach the fresh server while the old one
	// drains and hard-cancels both batches.
	cur.Store(fresh)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := old.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	var api *APIError
	if err := <-blocked; !errors.As(err, &api) || api.Code != http.StatusServiceUnavailable || api.Payload.Error != "shutting_down" {
		t.Fatalf("in-flight batch at shutdown: got %v, want 503 shutting_down", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("queued batch across the restart: %v", r.err)
	}
	if len(r.resp.Candidates) != 1 || r.resp.Candidates[0].LatencyNS <= 0 {
		t.Fatalf("retried batch answered %+v", r.resp.Candidates)
	}
	if n := c.Retries.Load(); n != 1 {
		t.Fatalf("client retried %d times, want 1", n)
	}
	// Both first attempts got the old server's 503; the retry got the
	// fresh server's 200.
	if n := old.mRequests[requestKey{"eval", http.StatusServiceUnavailable}].Value(); n != 2 {
		t.Fatalf("old server answered %d /eval requests 503, want 2", n)
	}
	if n := fresh.mRequests[requestKey{"eval", http.StatusOK}].Value(); n != 1 {
		t.Fatalf("fresh server answered %d /eval requests 200, want 1", n)
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
