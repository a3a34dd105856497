// Package runcache memoizes completed simulation runs — in memory within
// one process, and optionally across processes via a content-addressed
// disk tier (see disk.go and SetDir).
//
// Figure sweeps and the design-space exploration repeatedly evaluate the
// same (layout, traffic, seed, budget) recipe: Fig10's mesh columns are
// exactly the Fig11/Fig12 baseline and Diagonal+BL jobs, Fig13's reference
// configuration repeats Fig10's baseline runs, and a re-invoked experiment
// re-prices every point it already measured. Every run in this simulator
// is deterministic — a fixed seed and a fixed configuration produce
// bit-identical results — so a completed run can be reused wherever the
// same recipe appears.
//
// The cache is content-addressed: callers build a canonical key string
// containing every input that influences the result (the layout's full
// spec, the traffic pattern, the injection rate, flit counts, seeds and
// cycle budgets — see experiments and dse for the key formats). Entries
// are process-global and never evicted; a full `-scale full` regeneration
// holds a few hundred results, each a few kilobytes.
//
// ForCtx has singleflight semantics: concurrent callers of the same key (the
// sweeps fan out on the par worker pool) run the recipe once and share the
// result. Cached values are returned by reference where they contain
// slices or maps; callers must treat results as immutable, which every
// experiment already does.
//
// Cancellation does not poison the cache. ForCtx runs the recipe under the
// first caller's context; if that caller is cancelled or deadlined (a
// server shutdown cancels every run in flight), the failed entry is
// dropped rather than memoized, a waiter whose own context is still live
// retries as the new executor, and a waiter whose context has died stops
// waiting immediately instead of blocking on an execution it no longer
// wants. A retried request therefore re-simulates only the runs that were
// in flight; every run that finished is answered from the cache.
//
// Disable with SetEnabled(false) (the -nocache flag of cmd/experiments):
// every ForCtx then runs its function directly and the disk tier is
// bypassed in both directions. Because runs are deterministic, outputs are
// identical either way — a property pinned by
// TestFigureOutputIdenticalWithAndWithoutCache in the experiments package.
package runcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"heteronoc/internal/obs"
	"heteronoc/internal/reqstat"
)

// entry is one memoized run. The creating goroutine executes the recipe
// and closes done; waiters select on done against their own context.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

var (
	mu      sync.Mutex
	entries = map[string]*entry{}
	enabled atomic.Bool

	hits   atomic.Int64
	misses atomic.Int64
	execs  atomic.Int64
)

func init() { enabled.Store(true) }

// SetEnabled turns the cache on or off globally. Turning it off does not
// drop existing entries; use Reset for that.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether lookups are active.
func Enabled() bool { return enabled.Load() }

// Reset drops all entries and zeroes the hit/miss counters (tests).
func Reset() {
	mu.Lock()
	entries = map[string]*entry{}
	mu.Unlock()
	hits.Store(0)
	misses.Store(0)
	execs.Store(0)
}

// Stats returns the cumulative hit and miss counts. A hit is a lookup
// that found an existing entry (including one still being computed by a
// concurrent caller); a miss executed the function.
func Stats() (hit, miss int64) { return hits.Load(), misses.Load() }

// Execs returns how many recipes actually ran (neither tier satisfied the
// key) since the last Reset. A memory miss that the disk tier answers does
// not count, so a search re-run that touches only cached work reports a
// zero delta here — the "repeat run performs zero simulations" property
// the dse tests and CI gate assert.
func Execs() int64 { return execs.Load() }

// transient reports whether err is an outcome of this caller being
// stopped (cancelled or deadlined) rather than of the recipe itself —
// outcomes that must not be memoized, because a later caller with a live
// context would succeed.
func transient(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// doCtx returns the memoized result for key, running fn exactly once per
// key across all goroutines; with the cache disabled it runs fn directly.
// The recipe runs under the first caller's context; see the package
// comment for the cancellation contract.
func doCtx(ctx context.Context, key string, fn func(ctx context.Context) (any, error)) (any, error) {
	if !enabled.Load() {
		misses.Add(1)
		reqstat.Miss(ctx)
		return fn(ctx)
	}
	for {
		mu.Lock()
		e, ok := entries[key]
		if !ok {
			e = &entry{done: make(chan struct{})}
			entries[key] = e
		}
		mu.Unlock()
		if !ok {
			// This caller executes. A transient failure is un-memoized so
			// the key stays retryable; the entry is removed only if it is
			// still the one this execution owned.
			misses.Add(1)
			reqstat.Miss(ctx)
			e.val, e.err = fn(ctx)
			if e.err != nil && transient(e.err) {
				mu.Lock()
				if entries[key] == e {
					delete(entries, key)
				}
				mu.Unlock()
			}
			close(e.done)
			return e.val, e.err
		}
		hits.Add(1)
		reqstat.Hit(ctx)
		select {
		case <-e.done:
			if e.err != nil && transient(e.err) && ctx.Err() == nil {
				// The executor was stopped but this caller was not:
				// take over as the new executor.
				continue
			}
			return e.val, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// ForCtx runs fn through the cache with a typed result (see doCtx for
// the cancellation contract). When a disk tier is configured (SetDir), a
// memory miss consults the disk before running fn, and a freshly computed
// result is written back. Both happen inside the executing caller's
// critical section, so singleflight spans the tiers: one disk read and at
// most one execution per key, no matter how many goroutines race.
// When the context carries a request span, the cache-miss path records
// "cache.disk" (the disk-tier probe) and "execute" (the recipe run) child
// spans, so a served request's timing decomposes into cache tiers vs
// simulation.
func ForCtx[T any](ctx context.Context, key string, fn func(ctx context.Context) (T, error)) (T, error) {
	v, err := doCtx(ctx, key, func(ctx context.Context) (any, error) {
		span := obs.SpanFrom(ctx)
		disk := span.Child("cache.disk")
		v, ok := diskLoad[T](key)
		disk.End()
		if ok {
			return v, nil
		}
		execs.Add(1)
		reqstat.Exec(ctx)
		exec := span.Child("execute")
		v, err := fn(obs.ContextWithSpan(ctx, exec))
		exec.End()
		if err == nil {
			diskStore(key, v)
		}
		return v, err
	})
	if v == nil {
		var zero T
		return zero, err
	}
	return v.(T), err
}
