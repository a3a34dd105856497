package traffic

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"time"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/noc"
	"heteronoc/internal/suspend"
)

// suspendAfter flips the controller to "suspend requested" once the
// network reaches the given cycle, via the network's on-cycle hook (which
// runs on the stepping goroutine, so no synchronization is needed).
func suspendAfter(net *noc.Network, c *suspend.Controller, cycle int64) {
	net.SetOnCycle(func(cyc int64) {
		if cyc >= cycle {
			c.RequestSuspend()
		}
	})
}

func suspendRunCfg(proc Process) RunConfig {
	return RunConfig{
		Pattern:        UniformRandom{N: 64},
		Process:        proc,
		DataFlits:      6,
		WarmupPackets:  200,
		MeasurePackets: 2000,
		Seed:           7,
		SuspendKey:     "suspend-test-run",
	}
}

// TestSuspendResumeByteIdentical is the core resume-equivalence property:
// a run suspended mid-flight and resumed on a fresh network produces
// exactly the RunResult of an uninterrupted run — for the stateless
// Bernoulli process and for the stateful self-similar process (whose
// per-terminal on/off state and RNG position must both survive).
func TestSuspendResumeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		proc    func() Process
		suspend int64 // cycle at which to request suspension
	}{
		{"bernoulli-warmup", func() Process { return Bernoulli{P: 0.01} }, 100},
		{"bernoulli-measure", func() Process { return Bernoulli{P: 0.01} }, 2000},
		{"selfsimilar-measure", func() Process { return NewSelfSimilar(64, 0.01) }, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Control: uninterrupted run.
			net, err := buildBaseline()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(net, suspendRunCfg(tc.proc()))
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: suspend at tc.suspend cycles...
			dir := t.TempDir()
			ctrl := suspend.NewController(dir)
			ctx := suspend.WithController(context.Background(), ctrl)
			net2, err := buildBaseline()
			if err != nil {
				t.Fatal(err)
			}
			suspendAfter(net2, ctrl, tc.suspend)
			_, err = RunCtx(ctx, net2, suspendRunCfg(tc.proc()))
			if !errors.Is(err, suspend.ErrSuspended) {
				t.Fatalf("interrupted run: err = %v, want ErrSuspended", err)
			}
			if saves, _ := ctrl.Stats(); saves != 1 {
				t.Fatalf("saves = %d, want 1", saves)
			}

			// ...then resume on a fresh network with a fresh controller
			// over the same directory (a restarted server).
			ctrl2 := suspend.NewController(dir)
			ctx2 := suspend.WithController(context.Background(), ctrl2)
			net3, err := buildBaseline()
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunCtx(ctx2, net3, suspendRunCfg(tc.proc()))
			if err != nil {
				t.Fatal(err)
			}
			if _, resumes := ctrl2.Stats(); resumes != 1 {
				t.Fatalf("resumes = %d, want 1", resumes)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("resumed result differs:\n got %+v\nwant %+v", got, want)
			}
			// The checkpoint must be consumed: a third run starts fresh.
			if _, ok := ctrl2.Load(suspendRunCfg(tc.proc()).SuspendKey); ok {
				t.Error("checkpoint not cleared after successful resume")
			}
		})
	}
}

func resultsEqual(a, b RunResult) bool {
	if a.Cycles != b.Cycles || a.AvgLatency != b.AvgLatency || a.AvgHops != b.AvgHops ||
		a.AcceptedRate != b.AcceptedRate || a.OfferedRate != b.OfferedRate ||
		a.CombineRate != b.CombineRate || a.Saturated != b.Saturated ||
		a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 ||
		a.QueuingLatency != b.QueuingLatency || a.BlockingLatency != b.BlockingLatency ||
		a.TransferLatency != b.TransferLatency || len(a.Activity) != len(b.Activity) {
		return false
	}
	for i := range a.Activity {
		if a.Activity[i] != b.Activity[i] {
			return false
		}
	}
	return true
}

// TestCancellationBounded pins the acceptance criterion that a cancelled
// run stops within one cycle batch: cancel at cycle 5000 and assert the
// network never advanced past 5000+CancelBatch.
func TestCancellationBounded(t *testing.T) {
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 5000
	net.SetOnCycle(func(c int64) {
		if c == cancelAt {
			cancel()
		}
	})
	_, err = RunCtx(ctx, net, RunConfig{
		Pattern:        UniformRandom{N: 64},
		Process:        Bernoulli{P: 0.01},
		DataFlits:      6,
		WarmupPackets:  1 << 30, // never satisfied: only cancellation stops it
		MeasurePackets: 1,
		Seed:           3,
		MaxCycles:      1 << 40,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := net.Cycle(); c > cancelAt+CancelBatch {
		t.Errorf("network reached cycle %d, want <= %d (cancel + one batch)", c, cancelAt+CancelBatch)
	}
}

// TestSuspendUnsupportedProcessFallsBack: a process that cannot be
// serialized must not wedge the run — it keeps simulating and stops via
// its context instead.
type opaqueProcess struct{ Bernoulli }

func (opaqueProcess) Name() string { return "opaque" }

func TestSuspendUnsupportedProcessFallsBack(t *testing.T) {
	ctrl := suspend.NewController(t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	ctx = suspend.WithController(ctx, ctrl)
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	ctrl.RequestSuspend()
	net.SetOnCycle(func(c int64) {
		if c == 3*CancelBatch {
			cancel()
		}
	})
	cfg := suspendRunCfg(opaqueProcess{Bernoulli{P: 0.01}})
	_, err = RunCtx(ctx, net, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (fallback)", err)
	}
	if saves, _ := ctrl.Stats(); saves != 0 {
		t.Errorf("saves = %d, want 0 for unsupported process", saves)
	}
}

// TestResumeCorruptCheckpointStartsFresh: a corrupted checkpoint is not
// loadable (suspend.Load deletes it), so the run silently starts over and
// still matches the uninterrupted control.
func TestResumeCorruptCheckpointStartsFresh(t *testing.T) {
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	cfg := suspendRunCfg(Bernoulli{P: 0.01})
	want, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctrl := suspend.NewController(t.TempDir())
	if err := ctrl.Save(cfg.SuspendKey, []byte("NOCCKPT01 garbage that fails validation")); err == nil {
		// Save does not validate; Load must reject it.
		if _, ok := ctrl.Load(cfg.SuspendKey); ok {
			t.Fatal("corrupt checkpoint loaded")
		}
	}
	ctx := suspend.WithController(context.Background(), ctrl)
	net2, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(ctx, net2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(got, want) {
		t.Fatalf("fresh-start result differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestResumeRefusesForgedDrawCount splices a 2^62 RNG draw count into a
// genuine noc-run checkpoint. Replaying it would spin for a century; the
// resume must refuse it, by the draw bound per terminal and cycle, within
// a second, also when the nested network checkpoint claims a negative
// cycle (which would wrap an unsigned bound).
func TestResumeRefusesForgedDrawCount(t *testing.T) {
	cfg := suspendRunCfg(Bernoulli{P: 0.05})
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	src := newCountingSource(cfg.Seed)
	rng := rand.New(src)
	for c := 0; c < 300; c++ {
		for term := 0; term < 64; term++ {
			if cfg.Process.Fire(term, net.Cycle(), rng) {
				_ = net.TryInject(&noc.Packet{Src: term, Dst: cfg.Pattern.Dst(term, rng), NumFlits: cfg.DataFlits})
			}
		}
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := snapshotRun(net, cfg, src, phaseWarmup, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The draw count follows the seed, the phase and its start cycle.
	h, err := ckpt.ReadHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	w := ckpt.NewWriter(h)
	w.I64(cfg.Seed)
	w.Int(phaseWarmup)
	w.I64(0)
	off := len(w.Finish()) - 4
	if v, _ := binary.Uvarint(data[off:]); v != src.draws() {
		t.Fatalf("draw count offset holds %d, want %d", v, src.draws())
	}
	resume := func(data []byte) (time.Duration, error) {
		fresh, err := buildBaseline()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, _, err = resumeRun(fresh, cfg, newCountingSource(cfg.Seed), 64, data)
		return time.Since(start), err
	}
	if _, err := resume(data); err != nil {
		t.Fatalf("genuine checkpoint refused: %v", err)
	}

	seal := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	_, n := binary.Uvarint(data[off:])
	forged := seal(append(binary.AppendUvarint(append([]byte(nil), data[:off]...), 1<<62), data[off+n:]...))
	took, err := resume(forged)
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("forged draw count: err = %v, want ErrCorrupt", err)
	}
	if took > time.Second {
		t.Errorf("forged draw count refused after %v", took)
	}

	// The nested network checkpoint ends the run checkpoint; rewrite its
	// header cycle to -1.
	netSnap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tail := append(binary.AppendUvarint(nil, uint64(len(netSnap))), netSnap...)
	body := forged[:len(forged)-4]
	if !bytes.HasSuffix(body, tail) {
		t.Fatal("network checkpoint is not the run checkpoint's last field")
	}
	nh, err := ckpt.ReadHeader(netSnap)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := len(ckpt.NewWriter(nh).Finish()) - 4
	nh.Cycle = -1
	neg := ckpt.NewWriter(nh).Finish()
	neg = seal(append(neg[:len(neg)-4], netSnap[hdrLen:]...))
	negCycle := append(body[:len(body)-len(tail):len(body)-len(tail)], binary.AppendUvarint(nil, uint64(len(neg)))...)
	negCycle = seal(append(append(negCycle, neg...), 0, 0, 0, 0))
	took, err = resume(negCycle)
	if err == nil || !strings.Contains(err.Error(), "now cycle -1") {
		t.Errorf("forged draw count with a negative cycle: err = %v, want a refused clock", err)
	}
	if took > time.Second {
		t.Errorf("forged draw count with a negative cycle refused after %v", took)
	}
}
