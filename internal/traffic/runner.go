package traffic

import (
	"context"
	"fmt"
	"math/rand"

	"heteronoc/internal/chaos"
	"heteronoc/internal/noc"
	"heteronoc/internal/obs"
	"heteronoc/internal/reqstat"
	"heteronoc/internal/suspend"
)

// CancelBatch is the cooperative-cancellation granularity of RunCtx: the
// step loop consults its context (and the suspend controller) every this
// many cycles. The check is a handful of atomic loads, so at 256 cycles
// the overhead is unmeasurable, while a cancelled request stops consuming
// CPU within one batch — the bound the serve acceptance tests pin.
const CancelBatch = 256

// RunConfig controls one measured simulation, mirroring the paper's
// methodology: warm the network with WarmupPackets, then measure
// MeasurePackets (the paper uses 1,000 and 100,000).
type RunConfig struct {
	Pattern        Pattern
	Process        Process
	DataFlits      int // flits per injected packet
	WarmupPackets  int
	MeasurePackets int
	Seed           int64
	// MaxCycles aborts runs that cannot deliver the measurement quota
	// (deeply saturated networks); the statistics gathered so far are
	// returned. Zero means 200k cycles.
	MaxCycles int64
	// SuspendKey names this run for checkpoint-suspend — normally the
	// same content-addressed string the run is cached under. When set and
	// the context carries a suspend.Controller, a suspend request makes
	// the run checkpoint itself ("noc-run" NOCCKPT01) and return
	// ErrSuspended, and a later run with the same key resumes from the
	// recorded cycle. Empty disables suspension (cancellation still works).
	SuspendKey string
}

// RunResult summarizes one measured simulation.
type RunResult struct {
	Cycles          int64
	AvgLatency      float64 // cycles
	QueuingLatency  float64
	BlockingLatency float64
	TransferLatency float64
	AvgHops         float64
	// AcceptedRate is the delivered throughput in packets/node/cycle.
	AcceptedRate float64
	// OfferedRate is the configured injection rate in packets/node/cycle.
	OfferedRate float64
	CombineRate float64
	Saturated   bool
	Activity    []noc.RouterActivity
	// Latency percentiles in cycles (tail behavior; the jitter story of
	// Section 6 shows up here too).
	P50, P95, P99 float64
	// Attr is the mean per-packet causal latency attribution in cycles
	// over the measurement window, indexed by noc.AttrBucket order (queue,
	// vc_alloc, switch_alloc, credit, link, serialization). The buckets sum
	// to AvgLatency up to AttrResidual, which is zero whenever attribution
	// stayed enabled for the whole run.
	Attr         [noc.NumAttrBuckets]float64
	AttrResidual float64
	// RouterAttr is the per-router attribution rollup in raw cycles,
	// indexed [router][bucket] — the input of per-router-class breakdowns.
	RouterAttr [][noc.NumAttrBuckets]int64
}

// Run drives net with the configured traffic until the measurement quota is
// met, then drains in-flight measured packets.
func Run(net *noc.Network, cfg RunConfig) (RunResult, error) {
	return RunCtx(context.Background(), net, cfg)
}

// Run phases, recorded in suspend checkpoints.
const (
	phaseWarmup  = 0
	phaseMeasure = 1
)

// RunCtx is Run with cooperative cancellation and checkpoint-suspend.
// The step loop checks ctx every CancelBatch cycles; a done context stops
// the simulation within one batch and returns ctx.Err(). If the context
// carries a suspend.Controller whose suspend has been requested and
// cfg.SuspendKey is set, the run instead serializes its complete state
// (network snapshot, RNG position, injection-process state, phase) and
// returns suspend.ErrSuspended; a later RunCtx with the same key on a
// freshly built identical network resumes where it left off and produces
// a byte-identical RunResult.
func RunCtx(ctx context.Context, net *noc.Network, cfg RunConfig) (RunResult, error) {
	if cfg.DataFlits <= 0 {
		return RunResult{}, fmt.Errorf("traffic: DataFlits must be positive")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 200000
	}
	src := newCountingSource(cfg.Seed)
	rng := rand.New(src)
	terms := net.Config().Topo.NumTerminals()
	sus := suspend.FromContext(ctx)
	cha := chaos.FromContext(ctx)
	span := obs.SpanFrom(ctx)

	phase := phaseWarmup
	start := net.Cycle()
	if cfg.SuspendKey != "" {
		if data, ok := sus.Load(cfg.SuspendKey); ok {
			rs := span.Child("resume")
			p, ps, err := resumeRun(net, cfg, src, terms, data)
			rs.End()
			if err != nil {
				// The network may be partially restored and cannot be
				// stepped; drop the checkpoint so the caller's retry
				// starts clean.
				sus.Clear(cfg.SuspendKey)
				return RunResult{}, fmt.Errorf("traffic: resume: %w", err)
			}
			phase, start = p, ps
		}
	}

	inject := func() {
		for t := 0; t < terms; t++ {
			if cfg.Process.Fire(t, net.Cycle(), rng) {
				dst := cfg.Pattern.Dst(t, rng)
				// Synthetic load has no delivery obligation: traffic offered
				// to a severed destination under a fault plan is simply not
				// accepted, like a real NI refusing a send to a dead node.
				_ = net.TryInject(&noc.Packet{Src: t, Dst: dst, NumFlits: cfg.DataFlits})
			}
		}
	}

	// sinceCheck counts cycles since the last batch boundary; check
	// settles the per-request cycle account and consults the suspend and
	// cancellation signals.
	sinceCheck := 0
	check := func(ph int, phStart int64) error {
		reqstat.AddCycles(ctx, int64(sinceCheck))
		sinceCheck = 0
		if cha != nil {
			cha.Hit(chaos.PointRunStall)
		}
		// Suspend is tested before plain cancellation so a shutting-down
		// server checkpoints in-flight runs rather than discarding them.
		if cfg.SuspendKey != "" && sus.Requested() {
			ss := span.Child("suspend.save")
			if data, err := snapshotRun(net, cfg, src, ph, phStart); err == nil {
				if err := sus.Save(cfg.SuspendKey, data); err == nil {
					ss.End()
					return suspend.ErrSuspended
				}
			}
			ss.End()
			// Snapshot or store failed (unsupported process, no directory):
			// fall through — the run continues until its context stops it.
		}
		return ctx.Err()
	}
	step := func(ph int, phStart int64) error {
		if err := net.Step(); err != nil {
			return err
		}
		if sinceCheck++; sinceCheck >= CancelBatch {
			return check(ph, phStart)
		}
		return nil
	}

	// Warmup phase (skipped when resuming into measurement).
	if phase == phaseWarmup {
		ws := span.Child("warmup")
		for net.Stats().PacketsInjected < int64(cfg.WarmupPackets) && net.Cycle()-start < cfg.MaxCycles {
			inject()
			if err := step(phaseWarmup, start); err != nil {
				ws.End()
				return RunResult{}, err
			}
		}
		ws.End()
		reqstat.AddCycles(ctx, int64(sinceCheck))
		sinceCheck = 0
		net.ResetStats()
		start = net.Cycle()
	}
	// Measurement phase: keep offering load until the quota of measured
	// packets has been received or the cycle budget runs out.
	ms := span.Child("measure")
	for net.Stats().PacketsReceived < int64(cfg.MeasurePackets) && net.Cycle()-start < cfg.MaxCycles {
		inject()
		if err := step(phaseMeasure, start); err != nil {
			ms.End()
			return RunResult{}, err
		}
	}
	ms.End()
	reqstat.AddCycles(ctx, int64(sinceCheck))
	if cfg.SuspendKey != "" {
		sus.Clear(cfg.SuspendKey)
	}
	s := net.Stats()
	res := RunResult{
		Cycles:      s.Cycles,
		AvgLatency:  s.AvgLatency(),
		AvgHops:     s.AvgHops(),
		OfferedRate: cfg.Process.Rate(),
		CombineRate: net.CombineRate(),
		Activity:    net.Activity(),
	}
	res.QueuingLatency, res.BlockingLatency, res.TransferLatency = s.Breakdown()
	res.P50, res.P95, res.P99 = s.Percentile(0.50), s.Percentile(0.95), s.Percentile(0.99)
	if s.PacketsReceived > 0 {
		attr := s.Attribution()
		for b, v := range attr {
			res.Attr[b] = float64(v) / float64(s.PacketsReceived)
		}
		res.AttrResidual = float64(s.AttrResidual()) / float64(s.PacketsReceived)
	}
	res.RouterAttr = net.RouterAttribution()
	if s.Cycles > 0 {
		res.AcceptedRate = float64(s.PacketsReceived) / float64(s.Cycles) / float64(terms)
	}
	res.Saturated = s.PacketsReceived < int64(cfg.MeasurePackets) ||
		(res.OfferedRate > 0 && res.AcceptedRate < 0.85*res.OfferedRate)
	return res, nil
}

// Sweep runs a load sweep over injection rates and returns one result per
// rate. buildNet must return a fresh network for each point.
type SweepPoint struct {
	Rate   float64
	Result RunResult
}

// Sweep measures the network across the given injection rates. selfSimilar
// selects the Pareto on/off process instead of Bernoulli.
func Sweep(buildNet func() (*noc.Network, error), pattern func(n *noc.Network) Pattern,
	rates []float64, dataFlits, warmup, measure int, selfSimilar bool, seed int64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, r := range rates {
		net, err := buildNet()
		if err != nil {
			return nil, err
		}
		var proc Process
		if selfSimilar {
			proc = NewSelfSimilar(net.Config().Topo.NumTerminals(), r)
		} else {
			proc = Bernoulli{P: r}
		}
		res, err := Run(net, RunConfig{
			Pattern:        pattern(net),
			Process:        proc,
			DataFlits:      dataFlits,
			WarmupPackets:  warmup,
			MeasurePackets: measure,
			Seed:           seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{Rate: r, Result: res})
	}
	return out, nil
}
