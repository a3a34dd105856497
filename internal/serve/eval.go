package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"heteronoc/internal/chaos"
	"heteronoc/internal/dse"
	"heteronoc/internal/obs"
	"heteronoc/internal/reqstat"
)

// POST /eval turns a nocserved instance into a design-space-search worker:
// a search process (cmd/dse -server) ships each generation's deduplicated
// candidate batch here instead of probing locally. Batches ride the same
// admission pipeline as /run — bounded per-tenant queues, fair dispatch,
// cancellation to cycle-batch granularity, panic isolation — and every
// probe lands in the server's shared runcache, so concurrent searches (or
// a search resumed on another machine) dedupe against each other's work.

// EvalRequest is the POST /eval payload: one batch of canonical big-router
// placements to score under a fixed probe recipe.
type EvalRequest struct {
	// Tenant identifies the caller for fair scheduling; empty means
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// Cfg is the probe recipe (mesh size, load, packets, workload).
	Cfg dse.EvalConfig `json:"cfg"`
	// Sets are the placements to evaluate, one candidate per set.
	Sets [][]int `json:"sets"`
	// TimeoutSec caps the batch's wall time (0 = server default).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// EvalResponse is the POST /eval success payload. Candidates are
// index-aligned with the request's Sets.
type EvalResponse struct {
	Candidates []dse.Candidate `json:"candidates"`
	Cache      CacheStats      `json:"cache"`
	ElapsedMS  float64         `json:"elapsed_ms"`
	// FromCache is true when the whole batch was answered without running
	// a single simulation — the cross-search dedup case.
	FromCache bool `json:"from_cache"`
}

const (
	// maxEvalBatch bounds one request's candidate count; searches send
	// one generation at a time, far below this.
	maxEvalBatch = 1 << 16

	// minEvalDim and maxEvalDim bound each mesh dimension: a probe builds
	// W·H routers, so an unbounded mesh could exhaust memory, which panic
	// isolation cannot recover from.
	minEvalDim = 2
	maxEvalDim = 32
)

// checkEvalRequest refuses a batch the simulator cannot run: an empty or
// oversized batch, a mesh dimension outside [minEvalDim, maxEvalDim], or
// a router index outside the mesh.
func checkEvalRequest(req *EvalRequest) error {
	if len(req.Sets) == 0 {
		return errors.New("empty candidate batch")
	}
	if len(req.Sets) > maxEvalBatch {
		return fmt.Errorf("batch of %d exceeds limit %d", len(req.Sets), maxEvalBatch)
	}
	w, h := req.Cfg.W, req.Cfg.H
	if w < minEvalDim || w > maxEvalDim || h < minEvalDim || h > maxEvalDim {
		return fmt.Errorf("bad mesh dims %dx%d: each must lie in [%d, %d]", w, h, minEvalDim, maxEvalDim)
	}
	for i, set := range req.Sets {
		for _, r := range set {
			if r < 0 || r >= w*h {
				return fmt.Errorf("set %d: router %d outside the %dx%d mesh", i, r, w, h)
			}
		}
	}
	return nil
}

// handleEval admits, queues and answers one evaluation batch.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, ErrorPayload{Error: "method_not_allowed"})
		return
	}
	var req EvalRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorPayload{Error: "bad_request", Detail: err.Error()})
		return
	}
	if err := checkEvalRequest(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorPayload{Error: "bad_request", Detail: err.Error()})
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if s.draining.Load() {
		s.shed(w, http.StatusServiceUnavailable, "draining")
		return
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	var cancelTimeout context.CancelFunc = func() {}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
	}
	defer cancelTimeout()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	col := &reqstat.Collector{}
	ctx = reqstat.WithCollector(ctx, col)
	ctx = chaos.WithContext(ctx, s.cfg.Chaos)
	span := obs.NewSpan("request")
	span.SetAttr("kind", "eval")
	span.SetAttr("tenant", req.Tenant)
	span.SetAttr("batch", fmt.Sprint(len(req.Sets)))
	ctx = obs.ContextWithSpan(ctx, span)

	j := &job{
		tenant: req.Tenant,
		eval:   &req,
		ctx:    ctx,
		cancel: cancel,
		col:    col,
		span:   span,
		qspan:  span.Child("queue"),
		done:   make(chan jobResult, 1),
	}
	s.trackJob(j, true)
	if err := s.sched.enqueue(j); err != nil {
		s.trackJob(j, false)
		switch {
		case errors.Is(err, ErrDraining):
			s.shed(w, http.StatusServiceUnavailable, "draining")
		case errors.Is(err, ErrTenantQueueFull):
			s.shed(w, http.StatusTooManyRequests, "tenant_queue_full")
		default:
			s.shed(w, http.StatusTooManyRequests, "overloaded")
		}
		return
	}
	select {
	case res := <-j.done:
		s.writeResult(w, res)
	case <-r.Context().Done():
		cancel()
		res := <-j.done
		s.writeResult(w, res)
	}
}

// runEvalJob is the worker half of /eval; runJob dispatches here for
// batch jobs (panic isolation and busy accounting live in runJob).
func (s *Server) runEvalJob(j *job) {
	start := time.Now()
	run := j.span.Child("eval")
	cands, err := dse.LocalEvaluator{}.EvaluateBatch(obs.ContextWithSpan(j.ctx, run), j.eval.Cfg, j.eval.Sets)
	run.End()
	if err != nil {
		j.finish(s, "error")
		j.done <- jobResult{err: err}
		return
	}
	resp := &EvalResponse{
		Candidates: cands,
		Cache: CacheStats{
			Hits:       j.col.CacheHits.Load(),
			Misses:     j.col.CacheMisses.Load(),
			Executions: j.col.Executions.Load(),
			Cycles:     j.col.Cycles.Load(),
		},
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	resp.FromCache = resp.Cache.Executions == 0 && resp.Cache.Cycles == 0
	s.mHits.Add(resp.Cache.Hits)
	if resp.FromCache {
		s.mWarm.Inc()
	}
	outcome := "ok"
	if resp.FromCache {
		outcome = "ok_cached"
	}
	j.finish(s, outcome)
	s.lat.record(resp.ElapsedMS)
	j.done <- jobResult{eval: resp}
}

// Eval posts one candidate batch, retrying retryable refusals with the
// same backoff policy as Run.
func (c *Client) Eval(ctx context.Context, req EvalRequest) (*EvalResponse, error) {
	c.fill()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out EvalResponse
	if err := c.retry(ctx, "/eval", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RemoteEvaluator implements dse.Evaluator against a nocserved instance:
// each generation's batch becomes one POST /eval. The server's shared
// runcache (memory tier plus any disk tier) dedupes probes across every
// search using it, so two concurrent searches of overlapping regions each
// pay only for the placements the other has not already scored.
type RemoteEvaluator struct {
	Client *Client
	// Tenant names the search for the server's fair scheduler.
	Tenant string
	// TimeoutSec caps one batch (0 = server default).
	TimeoutSec float64

	// Batches counts completed batch round trips; WarmBatches counts
	// those the server answered without any simulation work.
	Batches     atomic.Int64
	WarmBatches atomic.Int64
}

// EvaluateBatch implements dse.Evaluator.
func (e *RemoteEvaluator) EvaluateBatch(ctx context.Context, cfg dse.EvalConfig, sets [][]int) ([]dse.Candidate, error) {
	resp, err := e.Client.Eval(ctx, EvalRequest{
		Tenant:     e.Tenant,
		Cfg:        cfg,
		Sets:       sets,
		TimeoutSec: e.TimeoutSec,
	})
	if err != nil {
		return nil, err
	}
	if len(resp.Candidates) != len(sets) {
		return nil, fmt.Errorf("serve: eval returned %d candidates for %d sets", len(resp.Candidates), len(sets))
	}
	e.Batches.Add(1)
	if resp.FromCache {
		e.WarmBatches.Add(1)
	}
	return resp.Candidates, nil
}
