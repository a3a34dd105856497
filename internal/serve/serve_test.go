package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heteronoc/internal/chaos"
	"heteronoc/internal/experiments"
	"heteronoc/internal/obs"
	"heteronoc/internal/reqstat"
)

// scaleSeq makes every test's Scale.Name process-unique so the global
// runcache cannot leak results between tests (keys include the name).
var scaleSeq atomic.Int64

// testScale returns a small scale preset with a unique name.
func testScale(t *testing.T, measurePackets int) experiments.Scale {
	t.Helper()
	return experiments.Scale{
		Name:             fmt.Sprintf("%s-%d", t.Name(), scaleSeq.Add(1)),
		WarmupPackets:    100,
		MeasurePackets:   measurePackets,
		SweepPoints:      3,
		CMPWarmupEntries: 1000,
		CMPCycles:        1000,
		DSEPackets:       100,
		DSECandidates:    2,
	}
}

// post sends one raw /run request and decodes the response body.
func post(t *testing.T, url string, req Request) (int, http.Header, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// postAsync fires one /run request from a background goroutine, where
// t.Fatalf is off limits; callers assert on server state, not the reply.
func postAsync(url string, req Request) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func decodeResponse(t *testing.T, data []byte) *Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("decode response: %v\n%s", err, data)
	}
	return &r
}

func TestSchedulerFairRoundRobin(t *testing.T) {
	s := newScheduler(4, 64)
	mk := func(tenant string) *job { return &job{tenant: tenant} }
	jobs := map[string]*job{}
	// Tenant A floods its queue before B and C submit one job each.
	for _, name := range []string{"a1", "a2", "a3", "b1", "c1"} {
		j := mk(string(name[0]))
		jobs[name] = j
		if err := s.enqueue(j); err != nil {
			t.Fatalf("enqueue %s: %v", name, err)
		}
	}
	var got []*job
	for i := 0; i < 5; i++ {
		j, ok := s.dequeue()
		if !ok {
			t.Fatal("scheduler drained early")
		}
		got = append(got, j)
	}
	// Round-robin: one job per tenant per pass, so b1 and c1 ride out
	// ahead of a2/a3 despite arriving later.
	want := []*job{jobs["a1"], jobs["b1"], jobs["c1"], jobs["a2"], jobs["a3"]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order[%d]: got tenant %q job %p, want %p", i, got[i].tenant, got[i], want[i])
		}
	}
}

func TestSchedulerBounds(t *testing.T) {
	s := newScheduler(2, 3)
	if err := s.enqueue(&job{tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue(&job{tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue(&job{tenant: "a"}); err != ErrTenantQueueFull {
		t.Fatalf("third job for one tenant: got %v, want ErrTenantQueueFull", err)
	}
	if err := s.enqueue(&job{tenant: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue(&job{tenant: "c"}); err != ErrOverloaded {
		t.Fatalf("job over global cap: got %v, want ErrOverloaded", err)
	}
	s.close()
	if err := s.enqueue(&job{tenant: "d"}); err != ErrDraining {
		t.Fatalf("enqueue after close: got %v, want ErrDraining", err)
	}
	// Already-admitted jobs still drain after close.
	for i := 0; i < 3; i++ {
		if _, ok := s.dequeue(); !ok {
			t.Fatalf("dequeue %d after close: queue should drain", i)
		}
	}
	if _, ok := s.dequeue(); ok {
		t.Fatal("dequeue on drained closed scheduler should report done")
	}
}

func TestRunColdThenWarm(t *testing.T) {
	sc := testScale(t, 20000) // ~200ms cold: enough headroom for the 100x gap
	srv := New(Config{Workers: 2, Scales: map[string]experiments.Scale{"test": sc}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	req := Request{Experiment: "fig1", Scale: "test", Tenant: "t0"}
	code, _, body := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("cold run: %d %s", code, body)
	}
	cold := decodeResponse(t, body)
	if cold.FromCache || cold.Cache.Executions == 0 || cold.Cache.Cycles == 0 {
		t.Fatalf("cold run should simulate: %+v", cold.Cache)
	}
	if cold.Fingerprint == "" || !strings.Contains(cold.Markdown, "fig1") {
		t.Fatalf("cold run response incomplete: fp=%q", cold.Fingerprint)
	}

	// The acceptance bar: a warm repeat is at least 100x faster than the
	// cold run (it does no simulation at all). One repeat's elapsed time
	// can catch a GC pause or a preemption on a loaded host, so the bar
	// applies to the median of five.
	warmMS := make([]float64, 5)
	for i := range warmMS {
		code, _, body = post(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("warm run: %d %s", code, body)
		}
		warm := decodeResponse(t, body)
		if !warm.FromCache || warm.Cache.Executions != 0 || warm.Cache.Cycles != 0 {
			t.Fatalf("warm repeat must run zero simulation work: %+v", warm.Cache)
		}
		if warm.Cache.Hits == 0 {
			t.Fatal("warm repeat should charge cache hits")
		}
		if warm.Fingerprint != cold.Fingerprint || warm.Markdown != cold.Markdown {
			t.Fatal("warm result differs from cold result")
		}
		warmMS[i] = warm.ElapsedMS
	}
	if med := percentile(warmMS, 50); med*100 > cold.ElapsedMS {
		t.Fatalf("median warm run %.3fms (of %v) not 100x faster than cold %.1fms", med, warmMS, cold.ElapsedMS)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	slow := testScale(t, 4_000_000) // minutes if left alone; cancelled below
	srv := New(Config{
		Workers: 1, QueuePerTenant: 1, MaxQueued: 2,
		DrainGrace: 20 * time.Millisecond,
		Scales:     map[string]experiments.Scale{"slow": slow},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the single worker.
	started := make(chan struct{})
	go func() {
		close(started)
		post(t, ts.URL, Request{Experiment: "fig1", Scale: "slow", Tenant: "a"})
	}()
	<-started
	waitFor(t, time.Second, func() bool { return srv.busy.Load() == 1 })

	// a's queue slot fills; a second queued job for a is shed per-tenant.
	enq := make(chan struct{})
	go func() {
		close(enq)
		post(t, ts.URL, Request{Experiment: "fig1", Scale: "slow", Tenant: "a"})
	}()
	<-enq
	waitFor(t, time.Second, func() bool { return srv.sched.depth() == 1 })
	code, hdr, body := post(t, ts.URL, Request{Experiment: "fig1", Scale: "slow", Tenant: "a"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("tenant overflow: got %d %s, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	var p ErrorPayload
	json.Unmarshal(body, &p)
	if p.Error != "tenant_queue_full" || p.RetryAfterSec <= 0 {
		t.Fatalf("tenant overflow payload: %+v", p)
	}

	// Other tenants may still queue until the global cap.
	go postAsync(ts.URL, Request{Experiment: "fig1", Scale: "slow", Tenant: "b"})
	waitFor(t, time.Second, func() bool { return srv.sched.depth() == 2 })
	code, _, body = post(t, ts.URL, Request{Experiment: "fig1", Scale: "slow", Tenant: "c"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("global overflow: got %d %s, want 429", code, body)
	}
	json.Unmarshal(body, &p)
	if p.Error != "overloaded" {
		t.Fatalf("global overflow payload: %+v", p)
	}

	// Shutdown cancels the in-flight and queued slow runs quickly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestRequestTimeoutStopsSimulation(t *testing.T) {
	slow := testScale(t, 4_000_000)
	srv := New(Config{Workers: 1, Scales: map[string]experiments.Scale{"slow": slow}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	code, _, body := post(t, ts.URL, Request{Experiment: "fig1", Scale: "slow", TimeoutSec: 0.15})
	if code != http.StatusRequestTimeout {
		t.Fatalf("timed-out run: got %d %s, want 408", code, body)
	}
	var p ErrorPayload
	json.Unmarshal(body, &p)
	if p.Error != "timeout" {
		t.Fatalf("payload: %+v", p)
	}
	// The run must actually have stopped: global simulation progress
	// freezes once the cancelled step loop unwinds.
	time.Sleep(50 * time.Millisecond)
	p0 := reqstat.GlobalProgress()
	time.Sleep(200 * time.Millisecond)
	if p1 := reqstat.GlobalProgress(); p1 != p0 {
		t.Fatalf("simulation still running after timeout: progress %d -> %d", p0, p1)
	}
}

func TestPanicIsolation(t *testing.T) {
	sc := testScale(t, 1200)
	ch := chaos.New(1)
	ch.Set(chaos.PointWorkerPanic, chaos.Spec{Prob: 1, Panic: true, Times: 1})
	srv := New(Config{Workers: 1, Chaos: ch, Scales: map[string]experiments.Scale{"test": sc}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	req := Request{Experiment: "fig1", Scale: "test"}
	code, _, body := post(t, ts.URL, req)
	if code != http.StatusInternalServerError {
		t.Fatalf("crashed run: got %d %s, want 500", code, body)
	}
	var p ErrorPayload
	json.Unmarshal(body, &p)
	if p.Error != "panic" || !strings.Contains(p.Detail, "chaos: injected panic") {
		t.Fatalf("crash payload: %+v", p)
	}
	if ch.Fired(chaos.PointWorkerPanic) != 1 {
		t.Fatal("chaos point did not fire")
	}
	// The server survived the crash: the next request succeeds.
	code, _, body = post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("post-crash run: got %d %s, want 200", code, body)
	}
	if !strings.Contains(string(srv.Registry().Exposition()), "serve_panics_total 1") {
		t.Fatal("serve_panics_total not incremented")
	}
}

func TestClientRetriesPanicsAndShedding(t *testing.T) {
	sc := testScale(t, 1200)
	ch := chaos.New(7)
	ch.Set(chaos.PointWorkerPanic, chaos.Spec{Prob: 1, Panic: true, Times: 2})
	srv := New(Config{Workers: 1, Chaos: ch, Scales: map[string]experiments.Scale{"test": sc}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	c := &Client{BaseURL: ts.URL, MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 3}
	resp, err := c.Run(context.Background(), Request{Experiment: "fig1", Scale: "test"})
	if err != nil {
		t.Fatalf("client should retry through injected panics: %v", err)
	}
	if resp.Fingerprint == "" {
		t.Fatal("empty response after retries")
	}
	if got := c.Retries.Load(); got < 2 {
		t.Fatalf("client retried %d times, want >= 2 (two injected panics)", got)
	}
}

// TestShutdownRetryByteIdentical pins the one shutdown path: a fig1 run
// still in flight after the drain grace is cancelled within a cycle
// batch, so Shutdown returns promptly and the waiting client gets 503
// shutting_down with Retry-After; the same request against a fresh
// Server then returns artifacts byte-identical to an uninterrupted run.
func TestShutdownRetryByteIdentical(t *testing.T) {
	sc := testScale(t, 100000) // ~1s uninterrupted
	scales := map[string]experiments.Scale{"long": sc}
	req := Request{Experiment: "fig1", Scale: "long", Tenant: "t"}

	srv1 := New(Config{Workers: 1, DrainGrace: 50 * time.Millisecond, Scales: scales})
	ts1 := httptest.NewServer(srv1.Handler())

	type outcome struct {
		code int
		hdr  http.Header
		body []byte
	}
	res := make(chan outcome, 1)
	go func() {
		code, hdr, body := post(t, ts1.URL, req)
		res <- outcome{code, hdr, body}
	}()
	waitFor(t, 5*time.Second, func() bool { return srv1.busy.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("shutdown took %v, want <= 500ms (50ms drain grace + one cycle batch)", took)
	}
	out := <-res
	ts1.Close()
	if out.code != http.StatusServiceUnavailable {
		t.Fatalf("in-flight run at shutdown: got %d %s, want 503", out.code, out.body)
	}
	var p ErrorPayload
	json.Unmarshal(out.body, &p)
	if p.Error != "shutting_down" || p.RetryAfterSec <= 0 || out.hdr.Get("Retry-After") == "" {
		t.Fatalf("in-flight run at shutdown: %+v (Retry-After %q), want shutting_down with Retry-After",
			p, out.hdr.Get("Retry-After"))
	}

	// The client's retry reaches a restarted server.
	srv2 := New(Config{Workers: 1, Scales: scales})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())
	code, _, body := post(t, ts2.URL, req)
	if code != http.StatusOK {
		t.Fatalf("retried run: got %d %s", code, body)
	}
	retried := decodeResponse(t, body)

	// Control: the same numeric scale under a different name recomputes
	// from scratch (cache keys include the name). Byte-identical
	// artifacts mean identical markdown, metrics and fingerprint.
	ctrlScale := sc
	ctrlScale.Name = sc.Name + "-control"
	runner, err := experiments.ByID(req.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := runner.Run(context.Background(), ctrlScale)
	if err != nil {
		t.Fatal(err)
	}
	if retried.Fingerprint != ctrl.Fingerprint() {
		t.Fatalf("retried fingerprint %s != control %s", retried.Fingerprint, ctrl.Fingerprint())
	}
	if retried.Markdown != ctrl.Markdown() {
		t.Fatal("retried markdown differs from uninterrupted control")
	}
	if len(retried.Metrics) != len(ctrl.Metrics) {
		t.Fatalf("retried run has %d metrics, control %d", len(retried.Metrics), len(ctrl.Metrics))
	}
	for k, v := range ctrl.Metrics {
		if retried.Metrics[k] != v {
			t.Fatalf("metric %s: retried %v != control %v", k, retried.Metrics[k], v)
		}
	}
}

func TestDrainingRejectsNewWork(t *testing.T) {
	slow := testScale(t, 4_000_000)
	srv := New(Config{
		Workers: 1, DrainGrace: 300 * time.Millisecond,
		Scales: map[string]experiments.Scale{"slow": slow},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	go postAsync(ts.URL, Request{Experiment: "fig1", Scale: "slow"})
	waitFor(t, 5*time.Second, func() bool { return srv.busy.Load() == 1 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	// While draining, new work is refused with 503 + Retry-After.
	waitFor(t, 5*time.Second, func() bool {
		code, hdr, body := post(t, ts.URL, Request{Experiment: "fig1", Scale: "slow"})
		if code != http.StatusServiceUnavailable {
			return false
		}
		var p ErrorPayload
		json.Unmarshal(body, &p)
		return p.Error == "draining" && hdr.Get("Retry-After") != ""
	})
	// /eval shares the admission path, so a batch is refused the same way
	// instead of queueing behind the drain.
	body, _ := json.Marshal(EvalRequest{Cfg: evalTestCfg(), Sets: [][]int{{0, 5, 10, 15}}})
	resp, err := http.Post(ts.URL+"/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /eval: %v", err)
	}
	var p ErrorPayload
	json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || p.Error != "draining" {
		t.Errorf("/eval while draining: %d %q, want 503 draining", resp.StatusCode, p.Error)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRunRejectsUnknownFields pins /run's share of the decode step: a
// body naming a field the server does not know (here "timeout" for
// "timeout_sec") is refused instead of running with the field dropped.
func TestRunRejectsUnknownFields(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"experiment":"fig1","scale":"quick","timeout":5}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p ErrorPayload
	json.NewDecoder(resp.Body).Decode(&p)
	if resp.StatusCode != http.StatusBadRequest || p.Error != "bad_request" {
		t.Fatalf("unknown field: %d %q, want 400 bad_request", resp.StatusCode, p.Error)
	}
}

func TestHealthzStallWatchdog(t *testing.T) {
	sc := testScale(t, 1200)
	ch := chaos.New(11)
	ch.Set(chaos.PointRunStall, chaos.Spec{Prob: 1, Delay: 300 * time.Millisecond, Times: 3})
	srv := New(Config{
		Workers: 1, Chaos: ch, StallAfter: 50 * time.Millisecond,
		Scales: map[string]experiments.Scale{"test": sc},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	go postAsync(ts.URL, Request{Experiment: "fig1", Scale: "test"})
	stalled := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		p, code := healthz(t, ts.URL)
		if p.Status == "stalled" {
			if code != http.StatusServiceUnavailable {
				t.Fatalf("stalled healthz returned %d, want 503", code)
			}
			// Progress moves only at cancellation-batch boundaries, and
			// a slow host (the race detector) can stretch one batch past
			// StallAfter; only a stall after the chaos point fired is the
			// one under test.
			if ch.Fired(chaos.PointRunStall) > 0 {
				stalled = true
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !stalled {
		t.Fatal("watchdog never reported the chaos-stalled run")
	}
}

// TestHealthzIdleTimeIsNotStall pins the watchdog's clock: time a server
// spends idle is not time its progress is frozen, so a job that has been
// busy for less than StallAfter reads ok however long the server idled
// before it.
func TestHealthzIdleTimeIsNotStall(t *testing.T) {
	const stallAfter = 150 * time.Millisecond
	ch := chaos.New(3)
	// Holds the job busy, with no progress, well past StallAfter.
	ch.Set(chaos.PointWorkerPanic, chaos.Spec{Prob: 1, Delay: 4 * stallAfter, Times: 1})
	srv := New(Config{
		Workers: 1, Chaos: ch, StallAfter: stallAfter,
		Scales: map[string]experiments.Scale{"test": testScale(t, 1200)},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	if p, _ := healthz(t, ts.URL); p.Status != "ok" || p.Busy != 0 {
		t.Fatalf("idle server: %+v, want ok with no busy workers", p)
	}
	time.Sleep(2 * stallAfter)
	go postAsync(ts.URL, Request{Experiment: "fig1", Scale: "test"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, _ := healthz(t, ts.URL)
		if p.Busy > 0 {
			if p.Status != "ok" {
				t.Fatalf("job busy for under StallAfter after an idle spell: %+v, want ok", p)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

type healthzPayload struct {
	Status     string  `json:"status"`
	Progress   int64   `json:"progress"`
	Busy       int64   `json:"busy_workers"`
	StalledSec float64 `json:"stalled_sec"`
}

// healthz polls /healthz once and returns its payload and status code.
func healthz(t *testing.T, url string) (healthzPayload, int) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p healthzPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p, resp.StatusCode
}

func TestLoadGenSLOReport(t *testing.T) {
	sc := testScale(t, 1200)
	srv := New(Config{Workers: 2, Scales: map[string]experiments.Scale{"test": sc}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	c := &Client{BaseURL: ts.URL, BaseDelay: time.Millisecond, Seed: 5}
	rep, err := RunLoad(context.Background(), LoadConfig{
		Client: c, Experiments: []string{"fig1"}, Scale: "test",
		Tenants: []string{"a", "b"}, Requests: 8, Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded != 8 || rep.Failed != 0 {
		t.Fatalf("load run: %+v", rep)
	}
	if rep.WarmHits == 0 || rep.HitRatio <= 0 {
		t.Fatalf("repeats of one experiment should hit the cache: %+v", rep)
	}
	if rep.P50MS <= 0 || rep.P99MS < rep.P50MS {
		t.Fatalf("latency percentiles inconsistent: p50=%.2f p99=%.2f", rep.P50MS, rep.P99MS)
	}
	m := rep.Metrics()
	for _, k := range []string{"serve_p50_ms", "serve_p99_ms", "serve_hit_ratio", "serve_tail_queue_ms"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("SLO metrics missing %s", k)
		}
	}
	if !strings.Contains(rep.String(), "latency:") {
		t.Fatal("report text rendering incomplete")
	}
	// Every request carried a span decomposition; the tail slice averages
	// the slowest 1% (at least one request), so both maps must be populated
	// and internally consistent.
	for _, timing := range []map[string]float64{rep.TimingMS, rep.TailTimingMS} {
		for _, k := range []string{"total", "queue", "run"} {
			if _, ok := timing[k]; !ok {
				t.Fatalf("timing decomposition missing %q: %v", k, timing)
			}
		}
	}
	if !strings.Contains(rep.String(), "server phases") {
		t.Fatal("report text omits the phase decomposition")
	}
}

func TestSpansEndpointAndResponseTiming(t *testing.T) {
	sc := testScale(t, 2000)
	srv := New(Config{Workers: 2, Scales: map[string]experiments.Scale{"test": sc}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	req := Request{Experiment: "fig1", Scale: "test", Tenant: "t0"}
	code, _, body := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("cold run: %d %s", code, body)
	}
	cold := decodeResponse(t, body)
	// A cold run simulates, so its decomposition includes the execute phase
	// under the run span (cache probe + recipe execution).
	for _, key := range []string{"total", "queue", "run", "run.execute"} {
		if _, ok := cold.Timing[key]; !ok {
			t.Errorf("cold response timing missing %q: %v", key, cold.Timing)
		}
	}
	code, _, body = post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("warm run: %d %s", code, body)
	}
	warm := decodeResponse(t, body)
	// A warm repeat is served from the memo cache: no execute span.
	if _, ok := warm.Timing["run.execute"]; ok {
		t.Errorf("warm response claims simulation time: %v", warm.Timing)
	}
	if _, ok := warm.Timing["total"]; !ok {
		t.Errorf("warm response timing missing total: %v", warm.Timing)
	}

	res, err := http.Get(ts.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var doc struct {
		Spans []*obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatalf("decode /spans: %v", err)
	}
	if len(doc.Spans) < 2 {
		t.Fatalf("/spans retained %d spans, want >= 2", len(doc.Spans))
	}
	outcomes := map[string]int{}
	for _, s := range doc.Spans {
		if s.Name != "request" {
			t.Errorf("root span named %q, want request", s.Name)
		}
		if s.Attrs["experiment"] != "fig1" || s.Attrs["tenant"] != "t0" {
			t.Errorf("span attrs incomplete: %v", s.Attrs)
		}
		outcomes[s.Attrs["outcome"]]++
		names := map[string]bool{}
		for _, c := range s.Children {
			names[c.Name] = true
		}
		if !names["queue"] || !names["run"] {
			t.Errorf("span %v missing queue/run children", names)
		}
	}
	if outcomes["ok"] == 0 || outcomes["ok_cached"] == 0 {
		t.Fatalf("expected one cold and one cached outcome, got %v", outcomes)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
