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

// Pool is a persistent set of worker goroutines for per-cycle sharding.
// Unlike Map — which spawns goroutines per batch and is amortized over
// multi-millisecond sweep jobs — a Pool is built once and reused every
// simulated cycle, so a tick costs a handful of channel operations instead
// of goroutine creation. The zero Pool is not usable; call NewPool.
type Pool struct {
	workers int
	work    chan shardJob
	wg      sync.WaitGroup
	closed  bool

	// Tick accounting (see TickStats). Plain counters written by the
	// single goroutine driving ShardedTick; read them from that goroutine
	// (or after the simulation stops), not concurrently.
	ticks       int64
	inlineTicks int64
	spans       int64
	items       int64
	maxSpan     int
	minSpan     int
}

// shardJob is one worker's share of a tick: loop stealing chunk indices
// from the shared counter and run fn over each stolen chunk's span until
// the chunks are exhausted.
type shardJob struct {
	fn           func(shard, lo, hi int)
	chunks       int
	span, extra  int // chunk c covers span items, +1 for the first extra
	next         *atomic.Int64
	done         *sync.WaitGroup
	panicked     *panicBox
	panickedOnce *sync.Once
}

// panicBox carries the first panic out of a tick back to the caller.
type panicBox struct{ value any }

// NewPool starts a pool of `workers` goroutines (minimum 1; values above
// GOMAXPROCS are allowed but cannot add real parallelism). Close the pool
// when the owning simulation is done with it.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, work: make(chan shardJob)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for j := range p.work {
				j.run()
			}
		}()
	}
	return p
}

func (j shardJob) run() {
	defer func() {
		if v := recover(); v != nil {
			j.panickedOnce.Do(func() { j.panicked.value = v })
		}
		j.done.Done()
	}()
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		lo := c * j.span
		if c < j.extra {
			lo += c
		} else {
			lo += j.extra
		}
		hi := lo + j.span
		if c < j.extra {
			hi++
		}
		j.fn(c, lo, hi)
	}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the worker goroutines down. The pool must be idle (no
// ShardedTick in flight). Close is idempotent.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.work)
	p.wg.Wait()
}

// stealChunkFactor oversubscribes the tick partition: each worker's fair
// share is split into this many chunks so a worker that drew light spans
// (idle routers) steals the heavy tail from its neighbors instead of
// leaving the pool waiting on one straggler.
const stealChunkFactor = 4

// Shards returns the number of contiguous chunks ShardedTick partitions n
// items into — the length a caller's per-shard sink slice must have. The
// count depends only on n and the pool size.
func (p *Pool) Shards(n int) int {
	if n <= 0 {
		return 0
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w == 1 {
		return 1
	}
	c := w * stealChunkFactor
	if c > n {
		c = n
	}
	return c
}

// ShardedTick partitions [0,n) into Shards(n) contiguous chunks and runs
// fn(shard, lo, hi) for each chunk on the pool, blocking until every chunk
// has completed. Workers steal chunk indices from a shared counter, so
// which worker runs a chunk varies — but the partition itself depends only
// on n and the pool size, and shard s always covers items before shard
// s+1, so a caller that merges per-shard effects in shard order reproduces
// ascending item order regardless of scheduling. fn must confine its
// writes to the items it was handed (plus per-shard scratch); under that
// contract the merged state is identical for every worker count, including
// 1. A panicking chunk is re-panicked on the caller's goroutine after the
// tick drains, so the pool is never left with a wedged tick.
func (p *Pool) ShardedTick(n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := p.Shards(n)
	p.ticks++
	p.items += int64(n)
	p.spans += int64(chunks)
	if chunks == 1 {
		p.inlineTicks++
		p.noteSpan(n, n)
		// Single shard: run inline, same code path as a worker would take.
		fn(0, 0, n)
		return
	}
	span := n / chunks
	extra := n % chunks // the first `extra` chunks take one more item
	if extra > 0 {
		p.noteSpan(span+1, span)
	} else {
		p.noteSpan(span, span)
	}
	workers := p.workers
	if workers > chunks {
		workers = chunks
	}
	var next atomic.Int64
	var done sync.WaitGroup
	var once sync.Once
	var pb panicBox
	done.Add(workers)
	job := shardJob{fn: fn, chunks: chunks, span: span, extra: extra,
		next: &next, done: &done, panicked: &pb, panickedOnce: &once}
	for w := 0; w < workers; w++ {
		p.work <- job
	}
	done.Wait()
	if pb.value != nil {
		panic(pb.value)
	}
}
