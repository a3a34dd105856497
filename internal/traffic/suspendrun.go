package traffic

// Checkpoint-suspend for a measured run. A "noc-run" NOCCKPT01 container
// wraps a full network snapshot with the runner's own position: which
// phase it was in, where that phase started, how many RNG draws have been
// consumed, and the injection process's mutable state. Together those are
// everything RunCtx needs to continue a run on a freshly built identical
// network and produce the same RunResult an uninterrupted run would —
// the RNG stream is replayed by draw count (the counting source routes
// every variate through Int63, so the count is the complete position),
// and the self-similar process's per-terminal on/off state is restored
// verbatim. Only the synthetic processes are suspendable: Bernoulli is
// stateless and SelfSimilar serializes its state slice; an unknown
// process makes snapshotRun refuse, and the run then falls back to plain
// cancellation.

import (
	"fmt"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/noc"
)

const (
	runCkptKind    = "noc-run"
	runCkptVersion = 1

	procTagBernoulli   = "bernoulli"
	procTagSelfSimilar = "selfsimilar"

	// maxProcStates bounds the decoded state-slice length; anything larger
	// in a CRC-valid container means an encoder bug, not a bigger machine.
	maxProcStates = 1 << 22

	// maxDrawsPerFire bounds the RNG draws one terminal takes in one pass
	// of RunCtx's inject. By the draw sites in traffic.go, Process.Fire
	// takes at most two (SelfSimilar: a Pareto period when its on/off
	// phase runs out, then the injection coin) and Pattern.Dst at most
	// three (Incast: the sink coin, the sink pick and the uniform
	// fallback). Float64 and Intn resample on rejections rarer than one
	// in a million draws; the three spare draws cover them many times over.
	maxDrawsPerFire = 8
)

// snapshotRun serializes the complete state of an in-flight run.
func snapshotRun(net *noc.Network, cfg RunConfig, src *countingSource, phase int, phaseStart int64) ([]byte, error) {
	tag, states, err := processState(cfg.Process)
	if err != nil {
		return nil, err
	}
	netSnap, err := net.Snapshot()
	if err != nil {
		return nil, err
	}
	w := ckpt.NewWriter(ckpt.Header{
		Kind:        runCkptKind,
		Version:     runCkptVersion,
		Cycle:       net.Cycle(),
		Fingerprint: net.Fingerprint(),
	})
	w.I64(cfg.Seed)
	w.Int(phase)
	w.I64(phaseStart)
	w.U64(src.draws())
	w.Str(tag)
	w.Int(len(states))
	for _, st := range states {
		w.Bool(st.on)
		w.Int(st.left)
	}
	w.Bytes(netSnap)
	return w.Finish(), nil
}

// resumeRun restores a snapshotRun checkpoint into net (which must be a
// freshly built network of the same configuration), fast-forwards src,
// and rewrites the process state. terms is the network's terminal count,
// the number RunCtx's inject draws for. On error the network may be partially
// restored and must be discarded.
func resumeRun(net *noc.Network, cfg RunConfig, src *countingSource, terms int, data []byte) (phase int, phaseStart int64, err error) {
	r, err := ckpt.NewReader(data)
	if err != nil {
		return 0, 0, err
	}
	h := r.Header()
	if h.Kind != runCkptKind {
		return 0, 0, fmt.Errorf("traffic: checkpoint kind %q, want %q", h.Kind, runCkptKind)
	}
	if h.Version != runCkptVersion {
		return 0, 0, fmt.Errorf("traffic: run checkpoint version %d, want %d", h.Version, runCkptVersion)
	}
	seed := r.I64()
	phase = r.Int()
	phaseStart = r.I64()
	draws := r.U64()
	tag := r.StrMax(32)
	n := r.Int()
	if r.Err() == nil && (n < 0 || n > maxProcStates) {
		return 0, 0, fmt.Errorf("%w: process state length %d", ckpt.ErrCorrupt, n)
	}
	states := make([]ssState, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var st ssState
		st.on = r.Bool()
		st.left = r.Int()
		states = append(states, st)
	}
	netSnap := r.Bytes()
	if err := r.Done(); err != nil {
		return 0, 0, err
	}
	if seed != cfg.Seed {
		return 0, 0, fmt.Errorf("traffic: checkpoint seed %d does not match run seed %d", seed, cfg.Seed)
	}
	if phase != phaseWarmup && phase != phaseMeasure {
		return 0, 0, fmt.Errorf("%w: unknown run phase %d", ckpt.ErrCorrupt, phase)
	}
	if err := applyProcessState(cfg.Process, tag, states); err != nil {
		return 0, 0, err
	}
	if err := net.RestoreSnapshot(netSnap); err != nil {
		return 0, 0, err
	}
	// inject runs once per stepped cycle, and the restore has verified the
	// cycle against the fingerprint; skip would spin for years on a
	// forged count. Dividing instead of multiplying cannot overflow.
	if cyc := net.Cycle(); cyc < 0 || terms < 1 || draws/maxDrawsPerFire/uint64(terms) > uint64(cyc) {
		return 0, 0, fmt.Errorf("%w: %d RNG draws in %d cycles of %d terminals", ckpt.ErrCorrupt, draws, cyc, terms)
	}
	src.skip(draws)
	return phase, phaseStart, nil
}

// processState extracts the serializable mutable state of a process.
func processState(p Process) (tag string, states []ssState, err error) {
	switch v := p.(type) {
	case Bernoulli:
		return procTagBernoulli, nil, nil
	case *SelfSimilar:
		return procTagSelfSimilar, v.state, nil
	default:
		return "", nil, fmt.Errorf("traffic: process %q does not support suspend", p.Name())
	}
}

// applyProcessState rewrites p's mutable state from a checkpoint,
// verifying the process type matches what was suspended.
func applyProcessState(p Process, tag string, states []ssState) error {
	switch tag {
	case procTagBernoulli:
		if _, ok := p.(Bernoulli); !ok {
			return fmt.Errorf("traffic: checkpoint process %q does not match run process %q", tag, p.Name())
		}
		return nil
	case procTagSelfSimilar:
		ss, ok := p.(*SelfSimilar)
		if !ok {
			return fmt.Errorf("traffic: checkpoint process %q does not match run process %q", tag, p.Name())
		}
		if len(states) != len(ss.state) {
			return fmt.Errorf("traffic: checkpoint has %d terminal states, run has %d", len(states), len(ss.state))
		}
		copy(ss.state, states)
		return nil
	default:
		return fmt.Errorf("traffic: unknown checkpoint process tag %q", tag)
	}
}
