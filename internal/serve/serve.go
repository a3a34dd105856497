// Package serve is the hardened simulation-as-a-service core behind
// cmd/nocserved: a multi-tenant run server that turns experiment requests
// (JSON: experiment id, scale, tenant) into figure/report artifacts.
//
// Hardening properties (each pinned by an acceptance test):
//
//   - Cancellation: every request's context reaches the innermost step
//     loops, which observe it at cycle-batch granularity; a disconnected
//     client or expired timeout stops simulation within one batch.
//   - Admission control: bounded per-tenant queues with round-robin fair
//     dispatch and a global cap; refusals are immediate 429/503 responses
//     with Retry-After, never unbounded queue growth.
//   - Isolation: a panicking run (including injected chaos panics) is
//     recovered in its worker, answered as a structured 500, and counted;
//     the server and every other tenant's requests keep going.
//   - Graceful shutdown: draining first waits for short runs, then
//     cancels whatever is still running; those clients get 503
//     shutting_down with Retry-After. The retry against a restarted
//     server re-simulates only the runs that were in flight (finished
//     ones are answered from the disk cache) and returns byte-identical
//     artifacts.
//
// The package is HTTP-handler-centric (Server.Handler) so tests can mount
// it on httptest servers; cmd/nocserved adds the listener, OS signals and
// hardened http.Server timeouts.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heteronoc/internal/chaos"
	"heteronoc/internal/experiments"
	"heteronoc/internal/obs"
	"heteronoc/internal/reqstat"
)

// Request is the POST /run payload.
type Request struct {
	// Experiment is the experiment id (fig1..fig14, table1, dse, or an
	// extension id).
	Experiment string `json:"experiment"`
	// Scale names a simulation scale preset ("quick" or "full" by
	// default; servers may register more).
	Scale string `json:"scale"`
	// Tenant identifies the caller for fair scheduling; empty means
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// TimeoutSec caps the run's wall time (0 = server default).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// CacheStats is the per-request cache accounting attached to a response.
type CacheStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Executions int64 `json:"executions"`
	Cycles     int64 `json:"cycles"`
}

// accounting is the bookkeeping every success payload carries. Response
// and EvalResponse embed it, so encoding/json reads and writes its fields
// inline; runJob fills it.
type accounting struct {
	Cache     CacheStats `json:"cache"`
	ElapsedMS float64    `json:"elapsed_ms"`
	// FromCache is true when the request ran zero simulation cycles and
	// zero recipe executions — answered entirely from memoized results.
	FromCache bool `json:"from_cache"`
}

// Response is the POST /run success payload.
type Response struct {
	Experiment  string             `json:"experiment"`
	Scale       string             `json:"scale"`
	Title       string             `json:"title"`
	Markdown    string             `json:"markdown"`
	Metrics     map[string]float64 `json:"metrics"`
	Fingerprint string             `json:"fingerprint"`
	accounting
	// Timing decomposes the request's wall time into span phases
	// (milliseconds, dotted paths like "queue", "run.execute"): the data a
	// nocload SLO report uses to split p99 into queue wait vs cache miss vs
	// simulation time.
	Timing map[string]float64 `json:"timing_ms,omitempty"`
}

// ErrorPayload is the JSON body of every non-200 response.
type ErrorPayload struct {
	Error         string  `json:"error"`
	Detail        string  `json:"detail,omitempty"`
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
}

// PanicError reports a run that panicked inside its worker. It is the
// structured remnant of the crash: the server survives, the request gets
// a 500 naming the panic.
type PanicError struct {
	Value string
}

func (e *PanicError) Error() string { return "serve: run panicked: " + e.Value }

// Config sizes and wires a Server. The zero value is usable: every field
// has a default.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueuePerTenant bounds each tenant's queue (default 4).
	QueuePerTenant int
	// MaxQueued bounds the total queue across tenants (default 8*Workers).
	MaxQueued int
	// DefaultTimeout caps a run when the request does not (0 = no cap).
	DefaultTimeout time.Duration
	// DrainGrace is how long Shutdown waits for in-flight runs to finish
	// before cancelling them (default 2s).
	DrainGrace time.Duration
	// Chaos optionally arms fault injection (see internal/chaos). Nil is
	// inert.
	Chaos *chaos.Chaos
	// Scales maps request scale names to presets. Defaults to
	// {"quick": experiments.Quick(), "full": experiments.Full()};
	// supplying any map replaces the default entirely.
	Scales map[string]experiments.Scale
	// StallAfter is the /healthz watchdog threshold: busy workers with no
	// global simulation progress for this long report stalled
	// (default 10s).
	StallAfter time.Duration
	// RetryAfter is the hint returned with 429/503 (default 1s).
	RetryAfter time.Duration
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueuePerTenant <= 0 {
		c.QueuePerTenant = 4
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 8 * c.Workers
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 2 * time.Second
	}
	if c.Scales == nil {
		c.Scales = map[string]experiments.Scale{
			"quick": experiments.Quick(),
			"full":  experiments.Full(),
		}
	}
	if c.StallAfter <= 0 {
		c.StallAfter = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// work is an endpoint's part of a job: it runs on a worker under the
// job's context (deadline, collector, chaos, request span) and returns the
// success payload together with the accounting embedded in it.
type work func(ctx context.Context) (payload any, acct *accounting, err error)

// job is one admitted request moving through the queue to a worker.
type job struct {
	tenant string
	work   work
	ctx    context.Context
	cancel context.CancelFunc
	col    *reqstat.Collector
	// span is the request's root span; qspan times the admission queue
	// (started at enqueue, ended when a worker picks the job up).
	span  *obs.Span
	qspan *obs.Span
	// done is buffered so a worker's send never blocks on a vanished
	// client.
	done chan jobResult
}

// finish closes the job's span tree with an outcome tag and publishes it
// to the server's span log.
func (j *job) finish(s *Server, outcome string) {
	j.qspan.End()
	j.span.SetAttr("outcome", outcome)
	j.span.End()
	s.spans.Add(j.span)
}

type jobResult struct {
	payload any
	err     error
}

// requestKey names one serve_requests_total series: the endpoint ("run"
// or "eval", the request path) and the response code.
type requestKey struct {
	endpoint string
	code     int
}

// Server is the service core. Create with New, mount Handler, stop with
// Shutdown.
type Server struct {
	cfg   Config
	sched *scheduler
	reg   *obs.Registry
	mux   *http.ServeMux

	workers  sync.WaitGroup
	draining atomic.Bool

	// jobs tracks admitted, unfinished jobs for the shutdown cancel.
	jobsMu sync.Mutex
	jobs   map[*job]struct{}

	busy atomic.Int64

	// Watchdog state for /healthz (same scheme as obs.Server, but keyed
	// on reqstat.GlobalProgress and gated on busy workers). busySince is
	// when the workers last went from all idle to busy: time spent idle
	// is not time frozen.
	watchMu    sync.Mutex
	lastProg   int64
	lastChange time.Time
	busySince  time.Time

	lat   *latencyTracker
	spans *obs.SpanLog

	mRequests map[requestKey]*obs.Counter
	mPanics   *obs.Counter
	mShed     *obs.Counter
	mHits     *obs.Counter
	mWarm     *obs.Counter
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:   cfg,
		sched: newScheduler(cfg.QueuePerTenant, cfg.MaxQueued),
		reg:   obs.NewRegistry(),
		jobs:  map[*job]struct{}{},
		lat:   newLatencyTracker(1024),
		spans: obs.NewSpanLog(256),
	}
	s.lastChange = time.Now()

	s.mRequests = map[requestKey]*obs.Counter{}
	for _, endpoint := range []string{"run", "eval"} {
		for _, code := range []int{
			http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusMethodNotAllowed, http.StatusRequestTimeout,
			http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusServiceUnavailable,
		} {
			s.mRequests[requestKey{endpoint, code}] = s.reg.NewCounter("serve_requests_total",
				"/run and /eval requests by endpoint and response code",
				obs.L("endpoint", endpoint), obs.L("code", fmt.Sprint(code)))
		}
	}
	s.mPanics = s.reg.NewCounter("serve_panics_total", "runs that panicked in a worker (recovered)")
	s.mShed = s.reg.NewCounter("serve_shed_total", "requests refused by admission control")
	s.mHits = s.reg.NewCounter("serve_cache_hits_total", "runcache hits charged to requests")
	s.mWarm = s.reg.NewCounter("serve_warm_requests_total", "requests answered with zero simulation work")
	s.reg.RegisterGauge("serve_queue_depth", "queued (undispatched) jobs", nil,
		func() float64 { return float64(s.sched.depth()) })
	s.reg.RegisterGauge("serve_busy_workers", "workers currently running a job", nil,
		func() float64 { return float64(s.busy.Load()) })
	s.reg.RegisterGauge("serve_latency_p50_ms", "median /run latency (sliding window)", nil,
		func() float64 { return s.lat.percentile(50) })
	s.reg.RegisterGauge("serve_latency_p99_ms", "p99 /run latency (sliding window)", nil,
		func() float64 { return s.lat.percentile(99) })

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/eval", s.handleEval)
	s.mux.HandleFunc("/spans", s.handleSpans)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)

	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP surface: POST /run, GET /metrics, /healthz,
// /statusz.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the server's metrics registry (for composition with a
// process-wide exposition).
func (s *Server) Registry() *obs.Registry { return s.reg }

// worker pulls jobs until the scheduler closes and drains.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.sched.dequeue()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job with panic isolation: a crash inside the
// experiment (or an injected chaos panic) becomes a structured error on
// j.done, never a dead server.
func (s *Server) runJob(j *job) {
	s.watchMu.Lock()
	if s.busy.Add(1) == 1 {
		s.busySince = time.Now()
	}
	s.watchMu.Unlock()
	defer func() {
		s.trackJob(j, false)
		s.busy.Add(-1)
		if p := recover(); p != nil {
			s.mPanics.Inc()
			j.finish(s, "panic")
			j.done <- jobResult{err: &PanicError{Value: fmt.Sprint(p)}}
		}
	}()
	if err := j.ctx.Err(); err != nil {
		// The client vanished while the job sat queued; don't burn a
		// worker on it.
		j.finish(s, "cancelled_queued")
		j.done <- jobResult{err: err}
		return
	}
	j.qspan.End()
	s.cfg.Chaos.Hit(chaos.PointWorkerPanic)
	start := time.Now()
	payload, acct, err := j.work(j.ctx)
	if err != nil {
		j.finish(s, "error")
		j.done <- jobResult{err: err}
		return
	}
	acct.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	acct.Cache = CacheStats{
		Hits:       j.col.CacheHits.Load(),
		Misses:     j.col.CacheMisses.Load(),
		Executions: j.col.Executions.Load(),
		Cycles:     j.col.Cycles.Load(),
	}
	acct.FromCache = acct.Cache.Executions == 0 && acct.Cache.Cycles == 0
	s.mHits.Add(acct.Cache.Hits)
	outcome := "ok"
	if acct.FromCache {
		s.mWarm.Inc()
		outcome = "ok_cached"
	}
	j.finish(s, outcome)
	if resp, ok := payload.(*Response); ok {
		// Only /run's wire format carries the phase split, and only a
		// finished span has its total. The latency window is /run's too:
		// a DSE batch is not a figure request.
		resp.Timing = j.span.Timing()
		s.lat.record(acct.ElapsedMS)
	}
	j.done <- jobResult{payload: payload}
}

// trackJob registers/unregisters an admitted job for the shutdown cancel.
func (s *Server) trackJob(j *job, add bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if add {
		s.jobs[j] = struct{}{}
	} else {
		delete(s.jobs, j)
	}
}

// cancelInflight cancels every admitted, unfinished job — dispatched runs
// stop within a cycle batch, and still-queued jobs fall out of the worker
// loop's early ctx check (shutdown phase 2).
func (s *Server) cancelInflight() {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	for j := range s.jobs {
		j.cancel()
	}
}

// Shutdown drains the server in two phases: refuse new work and let
// short runs finish (DrainGrace), then cancel whatever is still running
// or queued. A cancelled run stops within one cycle batch, and a client
// still waiting on it gets 503 shutting_down with Retry-After. Shutdown
// returns once every worker has exited or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.sched.close()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	case <-grace.C:
	}
	s.cancelInflight()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// handleRun validates one run request and hands it to admit.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !s.decode(w, r, 1<<20, &req) {
		return
	}
	runner, err := experiments.ByID(req.Experiment)
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, ErrorPayload{Error: "unknown_experiment", Detail: err.Error()})
		return
	}
	if req.Scale == "" {
		req.Scale = "quick"
	}
	sc, ok := s.cfg.Scales[req.Scale]
	if !ok {
		s.writeError(w, r, http.StatusBadRequest, ErrorPayload{Error: "unknown_scale", Detail: req.Scale})
		return
	}
	attrs := map[string]string{"experiment": req.Experiment, "scale": req.Scale}
	s.admit(w, r, req.Tenant, req.TimeoutSec, attrs, func(ctx context.Context) (any, *accounting, error) {
		run := obs.SpanFrom(ctx).Child("run")
		rep, err := runner.Run(obs.ContextWithSpan(ctx, run), sc)
		run.End()
		if err != nil {
			return nil, nil, err
		}
		resp := &Response{
			Experiment:  req.Experiment,
			Scale:       req.Scale,
			Title:       rep.Title,
			Markdown:    rep.Markdown(),
			Metrics:     rep.Metrics,
			Fingerprint: rep.Fingerprint(),
		}
		return resp, &resp.accounting, nil
	})
}

// decode refuses anything but a POST whose body, at most limit bytes,
// decodes into v. A field v does not declare (one a newer or older client
// sets) is refused too: dropping it would silently run another request
// than the one asked for. decode answers a refusal itself and reports
// whether the handler may go on.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, ErrorPayload{Error: "method_not_allowed"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, r, http.StatusBadRequest, ErrorPayload{Error: "bad_request", Detail: err.Error()})
		return false
	}
	return true
}

// admit is the one admission path of /run and /eval: it applies the
// tenant default, refuses work while draining, sets the deadline
// (timeoutSec, else the server default), installs the request's cost
// collector, chaos and span (labelled with attrs and the tenant), queues
// the job (429/503 on refusal) and answers with its result, cancelling
// the work if the client goes away first.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, tenant string, timeoutSec float64, attrs map[string]string, fn work) {
	if tenant == "" {
		tenant = "default"
	}
	if s.draining.Load() {
		s.shed(w, r, http.StatusServiceUnavailable, "draining")
		return
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if timeoutSec > 0 {
		timeout = time.Duration(timeoutSec * float64(time.Second))
	}
	if timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
		defer cancelTimeout()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	col := &reqstat.Collector{}
	ctx = reqstat.WithCollector(ctx, col)
	ctx = chaos.WithContext(ctx, s.cfg.Chaos)
	span := obs.NewSpan("request")
	for k, v := range attrs {
		span.SetAttr(k, v)
	}
	span.SetAttr("tenant", tenant)
	ctx = obs.ContextWithSpan(ctx, span)

	j := &job{
		tenant: tenant,
		work:   fn,
		ctx:    ctx,
		cancel: cancel,
		col:    col,
		span:   span,
		qspan:  span.Child("queue"),
		done:   make(chan jobResult, 1),
	}
	// Track from admission so a shutdown hard-cancel reaches queued jobs,
	// not just dispatched ones.
	s.trackJob(j, true)
	if err := s.sched.enqueue(j); err != nil {
		s.trackJob(j, false)
		switch {
		case errors.Is(err, ErrDraining):
			s.shed(w, r, http.StatusServiceUnavailable, "draining")
		case errors.Is(err, ErrTenantQueueFull):
			s.shed(w, r, http.StatusTooManyRequests, "tenant_queue_full")
		default:
			s.shed(w, r, http.StatusTooManyRequests, "overloaded")
		}
		return
	}
	select {
	case res := <-j.done:
		s.writeResult(w, r, res)
	case <-r.Context().Done():
		// Client gone: cancel the run (the step loops stop within one
		// batch) and record the outcome even though nobody reads it.
		cancel()
		res := <-j.done
		s.writeResult(w, r, res)
	}
}

// shed answers an admission refusal with a Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, code int, reason string) {
	s.mShed.Inc()
	s.retryLater(w, r, code, ErrorPayload{Error: reason})
}

// retryLater answers code with p and the server's Retry-After hint, which
// serve.Client honours before trying again.
func (s *Server) retryLater(w http.ResponseWriter, r *http.Request, code int, p ErrorPayload) {
	retry := s.cfg.RetryAfter
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Seconds()+0.999)))
	p.RetryAfterSec = retry.Seconds()
	s.writeError(w, r, code, p)
}

// writeResult maps a job outcome onto the HTTP surface.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, res jobResult) {
	switch {
	case res.err == nil:
		s.count(r, http.StatusOK)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res.payload)
	case errors.Is(res.err, context.DeadlineExceeded):
		s.writeError(w, r, http.StatusRequestTimeout, ErrorPayload{Error: "timeout"})
	case errors.Is(res.err, context.Canceled) && s.draining.Load() && r.Context().Err() == nil:
		// A shutdown cancelled the work while its client still waits:
		// the same request against a restarted server runs it, and every
		// run that finished before the shutdown is a cache hit.
		s.retryLater(w, r, http.StatusServiceUnavailable, ErrorPayload{
			Error: "shutting_down", Detail: "work cancelled by server shutdown; retry",
		})
	case errors.Is(res.err, context.Canceled):
		s.writeError(w, r, http.StatusRequestTimeout, ErrorPayload{Error: "cancelled"})
	default:
		var pe *PanicError
		if errors.As(res.err, &pe) {
			s.writeError(w, r, http.StatusInternalServerError, ErrorPayload{Error: "panic", Detail: pe.Value})
			return
		}
		s.writeError(w, r, http.StatusInternalServerError, ErrorPayload{Error: "internal", Detail: res.err.Error()})
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, code int, p ErrorPayload) {
	s.count(r, code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(p)
}

// count bumps the serve_requests_total series of r's endpoint and code.
func (s *Server) count(r *http.Request, code int) {
	if c, ok := s.mRequests[requestKey{strings.TrimPrefix(r.URL.Path, "/"), code}]; ok {
		c.Inc()
	}
}

// handleSpans serves the most recent request span trees as JSON — the
// request-level complement of the per-packet attribution counters.
func (s *Server) handleSpans(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.spans.WriteJSON(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(s.reg.Exposition())
}

// handleHealthz reports stalled when workers are busy but global
// simulation progress has frozen for StallAfter — the signal a chaos
// run.stall or a wedged simulation produces. Frozen time runs from the
// later of the last progress change and the workers' last idle-to-busy
// transition.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	prog := reqstat.GlobalProgress()
	now := time.Now()
	s.watchMu.Lock()
	if prog != s.lastProg {
		s.lastProg = prog
		s.lastChange = now
	}
	since := s.lastChange
	if s.busySince.After(since) {
		since = s.busySince
	}
	frozen := now.Sub(since)
	busy := s.busy.Load()
	s.watchMu.Unlock()
	type payload struct {
		Status     string  `json:"status"`
		Progress   int64   `json:"progress"`
		Busy       int64   `json:"busy_workers"`
		Queued     int     `json:"queued"`
		StalledSec float64 `json:"stalled_sec,omitempty"`
	}
	p := payload{Status: "ok", Progress: prog, Busy: busy, Queued: s.sched.depth()}
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		p.Status = "draining"
	} else if p.Busy > 0 && frozen >= s.cfg.StallAfter {
		p.Status = "stalled"
		p.StalledSec = frozen.Seconds()
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(p)
}

// handleStatusz is a small human-readable status page.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintf(w, "nocserved\nworkers: %d (busy %d)\nqueued: %d\ndraining: %t\n",
		s.cfg.Workers, s.busy.Load(), s.sched.depth(), s.draining.Load())
	if pts := s.cfg.Chaos.Points(); len(pts) > 0 {
		fmt.Fprintf(w, "chaos armed: %v\n", pts)
	}
}
