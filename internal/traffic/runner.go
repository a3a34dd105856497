package traffic

import (
	"context"
	"fmt"
	"math/rand"

	"heteronoc/internal/chaos"
	"heteronoc/internal/noc"
	"heteronoc/internal/obs"
	"heteronoc/internal/reqstat"
)

// CancelBatch is the cooperative-cancellation granularity of RunCtx: the
// step loop consults its context every this many cycles. The check is a
// handful of atomic loads, so at 256 cycles the overhead is unmeasurable,
// while a cancelled request stops consuming CPU within one batch — the
// bound the serve acceptance tests pin.
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
	Seed           int64 // 0 means 42
	// MaxCycles aborts runs that cannot deliver the measurement quota
	// (deeply saturated networks); the statistics gathered so far are
	// returned. Zero means 200k cycles.
	MaxCycles int64
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

// Run drives net with the configured traffic: warmup packets first, then
// measurement until MeasurePackets have been received or MaxCycles pass.
// It does not drain: packets still in flight at the end are not counted.
func Run(net *noc.Network, cfg RunConfig) (RunResult, error) {
	return RunCtx(context.Background(), net, cfg)
}

// RunCtx is Run with cooperative cancellation: the step loop checks ctx
// every CancelBatch cycles, and a done context stops the simulation
// within one batch and returns ctx.Err().
func RunCtx(ctx context.Context, net *noc.Network, cfg RunConfig) (RunResult, error) {
	if cfg.DataFlits <= 0 {
		return RunResult{}, fmt.Errorf("traffic: DataFlits must be positive")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 200000
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	rng := rand.New(rand.NewSource(seed))
	terms := net.Config().Topo.NumTerminals()
	cha := chaos.FromContext(ctx)
	span := obs.SpanFrom(ctx)

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

	// sinceCheck counts cycles since the last batch boundary, where step
	// settles the per-request cycle account and consults the context.
	sinceCheck := 0
	step := func() error {
		if err := net.Step(); err != nil {
			return err
		}
		if sinceCheck++; sinceCheck < CancelBatch {
			return nil
		}
		reqstat.AddCycles(ctx, int64(sinceCheck))
		sinceCheck = 0
		if cha != nil {
			cha.Hit(chaos.PointRunStall)
		}
		return ctx.Err()
	}

	// Warmup phase.
	start := net.Cycle()
	ws := span.Child("warmup")
	for net.Stats().PacketsInjected < int64(cfg.WarmupPackets) && net.Cycle()-start < cfg.MaxCycles {
		inject()
		if err := step(); err != nil {
			ws.End()
			return RunResult{}, err
		}
	}
	ws.End()
	reqstat.AddCycles(ctx, int64(sinceCheck))
	sinceCheck = 0
	net.ResetStats()
	start = net.Cycle()
	// Measurement phase: keep offering load until the quota of measured
	// packets has been received or the cycle budget runs out.
	ms := span.Child("measure")
	for net.Stats().PacketsReceived < int64(cfg.MeasurePackets) && net.Cycle()-start < cfg.MaxCycles {
		inject()
		if err := step(); err != nil {
			ms.End()
			return RunResult{}, err
		}
	}
	ms.End()
	reqstat.AddCycles(ctx, int64(sinceCheck))
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

// SweepPoint is one measured point of a load sweep: the injection rate
// and the run's result.
type SweepPoint struct {
	Rate   float64
	Result RunResult
}
