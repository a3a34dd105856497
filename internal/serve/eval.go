package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"heteronoc/internal/dse"
	"heteronoc/internal/obs"
)

// POST /eval turns a nocserved instance into a design-space-search worker:
// a search process (cmd/dse -server) ships each generation's deduplicated
// candidate batch here instead of probing locally. Batches ride /run's
// admission path (admit) — bounded per-tenant queues, fair dispatch,
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
// index-aligned with the request's Sets; FromCache means the whole batch
// was answered without running a single simulation — the cross-search
// dedup case.
type EvalResponse struct {
	Candidates []dse.Candidate `json:"candidates"`
	accounting
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
// oversized batch, a mesh dimension outside [minEvalDim, maxEvalDim], a
// router index outside the mesh, an unknown probe workload, a rate outside
// [0, 1] or a negative packet count.
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
	cfg := &req.Cfg
	switch cfg.Workload {
	case "", "uniform", "hotspot", "mc-incast", "mixed":
	default:
		return fmt.Errorf("unknown probe workload %q", cfg.Workload)
	}
	if !(cfg.InjectionRate >= 0 && cfg.InjectionRate <= 1) {
		return fmt.Errorf("injection rate %g must lie in [0, 1]", cfg.InjectionRate)
	}
	if cfg.Packets < 0 {
		return fmt.Errorf("negative packet count %d", cfg.Packets)
	}
	return nil
}

// handleEval validates one evaluation batch and hands it to admit. A
// shutdown cancels its probes like any other run.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	if !s.decode(w, r, 16<<20, &req) {
		return
	}
	if err := checkEvalRequest(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, ErrorPayload{Error: "bad_request", Detail: err.Error()})
		return
	}
	attrs := map[string]string{"kind": "eval", "batch": fmt.Sprint(len(req.Sets))}
	s.admit(w, r, req.Tenant, req.TimeoutSec, attrs, func(ctx context.Context) (any, *accounting, error) {
		run := obs.SpanFrom(ctx).Child("eval")
		cands, err := dse.LocalEvaluator{}.EvaluateBatch(obs.ContextWithSpan(ctx, run), req.Cfg, req.Sets)
		run.End()
		if err != nil {
			return nil, nil, err
		}
		resp := &EvalResponse{Candidates: cands}
		return resp, &resp.accounting, nil
	})
}

// Eval posts one candidate batch, retrying retryable refusals with the
// same backoff policy as Run.
func (c *Client) Eval(ctx context.Context, req EvalRequest) (*EvalResponse, error) {
	var out EvalResponse
	if err := c.post(ctx, "/eval", req, &out); err != nil {
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
