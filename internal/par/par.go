// Package par provides the deterministic fan-out helpers used by the
// experiment sweeps, the design-space exploration and the sharded cycle
// kernel. Every caller follows the same contract: jobs are mutually
// independent (each builds its own simulator with fixed seeds, or touches
// only the state it owns), results come back in job order, and the reported
// error is the one the equivalent sequential loop would have hit first.
// Under that contract a parallel sweep is byte-identical to its sequential
// ancestor — only wall-clock time changes.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PanicError reports a job that panicked instead of returning. Map recovers
// worker panics so one bad sweep point fails the batch with its index and
// payload instead of killing the process with a bare goroutine stack.
type PanicError struct {
	Index int // the job index that panicked
	Value any // the recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: job %d panicked: %v", e.Index, e.Value)
}

// Map runs fn(0..n-1) on a bounded worker pool and returns the results in
// index order. The pool size is GOMAXPROCS capped at n; indices are handed
// out in order, so for n below the pool size execution degenerates to the
// obvious one-goroutine-per-job form. If any job fails, Map returns the
// error of the lowest failing index — exactly the error a sequential
// for-loop that stops at the first failure would return — and no results.
// A job that panics is reported the same way, as a *PanicError carrying the
// failing index and the panic value.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is Map with cooperative cancellation: once ctx is done, no
// further indices are dispatched; jobs already running finish on their
// own — each is expected to observe the same ctx at its next cycle batch.
// The error rule extends the sequential model: an index the loop never
// reached fails with ctx.Err(), so the reported error is still the one
// the equivalent sequential loop would hit first.
func MapCtx[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = runJob(ctx, i, fn)
			}
		}()
	}
	dispatched := n
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			dispatched = i
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	// Undispatched indices fail the way the sequential loop would have:
	// with the cancellation that stopped the dispatch.
	for i := dispatched; i < n; i++ {
		errs[i] = ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runJob invokes one job with panic recovery; a panic becomes a *PanicError
// so the error-ordering rule (lowest failing index wins) covers panics too.
func runJob[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (result T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v}
		}
	}()
	return fn(ctx, i)
}

// Pool is a fixed set of workers for per-cycle sharding. ShardedTick
// splits its items into one contiguous span per worker: span s always runs
// on worker s, and the caller runs span 0 itself, so a pool of w holds w-1
// goroutines. Unlike Map, which spawns goroutines per batch and is
// amortized over multi-millisecond sweep jobs, a Pool is built once and
// reused every simulated cycle: a tick hands off through shared counters
// that the waiting side spins on. The zero Pool is not usable; call
// NewPool.
type Pool struct {
	workers int
	wg      sync.WaitGroup

	// The tick in flight: the caller writes fn, n and spans, then bumps
	// gen; each worker runs its span and decrements pending. Close sets
	// closed before its own bump.
	fn      func(shard, lo, hi int)
	n       int
	spans   int
	gen     atomic.Uint64
	pending atomic.Int32
	closed  atomic.Bool

	panicMu sync.Mutex
	panicV  any // the first panic of the tick in flight

	// await's blocking fallback. sleepers counts the goroutines blocked in
	// it, so a handoff pays for the lock only when someone sleeps.
	mu       sync.Mutex
	wakeup   *sync.Cond
	sleepers atomic.Int32
}

// NewPool starts a pool of `workers` spans (minimum 1) and workers-1
// goroutines. Values above GOMAXPROCS are allowed but cannot add real
// parallelism. Close the pool when the owning simulation is done with it.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	p.wakeup = sync.NewCond(&p.mu)
	p.wg.Add(workers - 1)
	for s := 1; s < workers; s++ {
		go p.work(s)
	}
	return p
}

// work is worker s's loop: wait for the next tick, run span s, report.
func (p *Pool) work(s int) {
	defer p.wg.Done()
	var seen uint64
	for {
		p.await(func() bool { return p.gen.Load() != seen })
		if p.closed.Load() {
			return
		}
		// The caller starts the next tick only after this worker reports,
		// so gen has moved exactly once.
		seen++
		p.runSpan(s)
		if p.pending.Add(-1) == 0 {
			p.wake()
		}
	}
}

// spinBudget is how many rounds await spins, yielding the processor each
// round, before it blocks: about 150 µs on an idle 2-vCPU host (Go 1.24),
// longer than the gap between two phases of a 32x32 cycle. A shorter spin
// blocks inside a cycle (2^8 rounds slowed a two-span 32x32 run by 45%);
// a longer one spins away CPU time that other processes on a busy host
// would give the spans.
const spinBudget = 1 << 10

// await returns once ready holds. It first spins, calling runtime.Gosched
// every round so that more workers than CPUs still make progress, then
// sleeps until a wake, so an idle or closed pool holds no CPU.
func (p *Pool) await(ready func() bool) {
	for i := 0; i < spinBudget; i++ {
		if ready() {
			return
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	p.sleepers.Add(1)
	for !ready() {
		p.wakeup.Wait()
	}
	p.sleepers.Add(-1)
	p.mu.Unlock()
}

// wake rouses the goroutines blocked in await after the state they wait on
// changed. A sleeper registers before its last check of that state, so it
// either sees the change or is counted here.
func (p *Pool) wake() {
	if p.sleepers.Load() > 0 {
		p.mu.Lock()
		p.wakeup.Broadcast()
		p.mu.Unlock()
	}
}

// runSpan runs span s of the tick in flight, keeping the tick's first
// panic for the caller.
func (p *Pool) runSpan(s int) {
	defer func() {
		if v := recover(); v != nil {
			p.panicMu.Lock()
			if p.panicV == nil {
				p.panicV = v
			}
			p.panicMu.Unlock()
		}
	}()
	if s < p.spans {
		lo, hi := Span(p.n, p.spans, s)
		p.fn(s, lo, hi)
	}
}

// Workers returns the pool size: the number of spans a tick of at least
// that many items splits into.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the worker goroutines down. The pool must be idle (no
// ShardedTick in flight). Close is idempotent.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.gen.Add(1)
	p.wake()
	p.wg.Wait()
}

// Span returns the s-th of parts contiguous, near-equal spans of [0,n).
// Spans ascend with s and are never empty when parts <= n.
func Span(n, parts, s int) (lo, hi int) {
	return s * n / parts, (s + 1) * n / parts
}

// ShardedTick splits [0,n) into min(Workers(), n) spans with Span and runs
// fn(shard, lo, hi) for span `shard` on worker `shard`, the caller taking
// span 0, and returns when every span has finished. The partition depends
// only on n and the pool size, and span s covers items before span s+1, so
// a caller that merges per-span effects in span order reproduces ascending
// item order regardless of scheduling. fn must confine its writes to the
// items it was handed (plus per-span scratch); under that contract the
// merged state is identical for every worker count, including 1. A panic
// in any span is raised again on the caller after the tick drains, so the
// pool is never left with a wedged tick.
func (p *Pool) ShardedTick(n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	spans := min(p.workers, n)
	if spans == 1 {
		fn(0, 0, n)
		return
	}
	p.fn, p.n, p.spans = fn, n, spans
	p.pending.Store(int32(p.workers - 1))
	p.gen.Add(1)
	p.wake()
	p.runSpan(0)
	p.await(func() bool { return p.pending.Load() == 0 })
	p.fn = nil
	if v := p.panicV; v != nil {
		p.panicV = nil
		panic(v)
	}
}
