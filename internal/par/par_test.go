package par

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrder: results land at their job index regardless of which worker
// ran them.
func TestMapOrder(t *testing.T) {
	got, err := Map(100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapFirstError: the reported error is the one at the lowest failing
// index, matching a sequential loop that stops at the first failure.
func TestMapFirstError(t *testing.T) {
	errLo := errors.New("lo")
	errHi := errors.New("hi")
	_, err := Map(50, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, errLo
		case 31:
			return 0, errHi
		}
		return i, nil
	})
	if err != errLo {
		t.Fatalf("got %v, want %v", err, errLo)
	}
}

// TestMapRunsEveryJob: all jobs execute exactly once.
func TestMapRunsEveryJob(t *testing.T) {
	var ran int64
	if _, err := Map(137, func(int) (struct{}, error) {
		atomic.AddInt64(&ran, 1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 137 {
		t.Fatalf("ran %d jobs, want 137", ran)
	}
}

// TestMapEmpty: a zero-length map is a no-op.
func TestMapEmpty(t *testing.T) {
	got, err := Map(0, func(int) (int, error) { return 1, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}

// TestMapErrorOrderingProperty: whatever random subset of jobs fails, Map
// reports the error of the lowest failing index — exactly what a
// sequential loop stopping at the first failure would have seen.
func TestMapErrorOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(64)
		fail := map[int]error{}
		lowest := -1
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				fail[i] = fmt.Errorf("job %d failed", i)
				if lowest < 0 {
					lowest = i
				}
			}
		}
		_, err := Map(n, func(i int) (int, error) {
			if e, ok := fail[i]; ok {
				return 0, e
			}
			return i, nil
		})
		switch {
		case lowest < 0 && err != nil:
			t.Fatalf("trial %d: no job failed but Map returned %v", trial, err)
		case lowest >= 0 && err != fail[lowest]:
			t.Fatalf("trial %d: lowest failing index %d, Map returned %v", trial, lowest, err)
		}
	}
}

// TestMapPanicRecovery: a panicking job surfaces as a *PanicError naming
// the failing index instead of killing the process.
func TestMapPanicRecovery(t *testing.T) {
	_, err := Map(16, func(i int) (int, error) {
		if i == 11 {
			panic("sweep point exploded")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Index != 11 || pe.Value != "sweep point exploded" {
		t.Fatalf("PanicError = {Index: %d, Value: %v}, want index 11", pe.Index, pe.Value)
	}
}

// TestMapPanicOrdering: panics obey the same lowest-index-wins rule as
// errors, and mixed failures compare by index, not kind.
func TestMapPanicOrdering(t *testing.T) {
	sentinel := errors.New("regular failure")
	_, err := Map(32, func(i int) (int, error) {
		switch i {
		case 9:
			panic("first failure")
		case 20:
			return 0, sentinel
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 9 {
		t.Fatalf("want panic at index 9 to win, got %v", err)
	}
}

// TestShardedTickPartition: every item of [0,n) is covered exactly once,
// shards are contiguous ascending spans, and no shard is empty.
func TestShardedTickPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 65} {
			covered := make([]int32, n)
			p.ShardedTick(n, func(shard, lo, hi int) {
				if lo >= hi {
					t.Errorf("workers=%d n=%d: empty shard %d [%d,%d)", workers, n, shard, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: item %d covered %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
		p.Close() // idempotent
	}
}

// TestIdlePoolBlocks: a pool left idle stops spinning and blocks every
// worker, so it holds no CPU between ticks that never come.
func TestIdlePoolBlocks(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	p.ShardedTick(3, func(shard, lo, hi int) {})
	time.Sleep(50 * time.Millisecond)
	if got := p.sleepers.Load(); got != 2 {
		t.Fatalf("after 50 ms idle %d of 2 workers are blocked", got)
	}
	// A tick wakes them.
	var ran atomic.Int32
	p.ShardedTick(3, func(shard, lo, hi int) { ran.Add(1) })
	if ran.Load() != 3 {
		t.Fatalf("%d of 3 spans ran after the pool slept", ran.Load())
	}
}

// TestShardedTickPanic: a panic in any span, the caller's span 0
// included, is raised again on the caller after the tick joins, and the
// pool stays usable afterwards.
func TestShardedTickPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for bad := 0; bad < 4; bad++ {
		func() {
			defer func() {
				if v := recover(); v != fmt.Sprint("span ", bad) {
					t.Errorf("span %d panicked, caller recovered %v", bad, v)
				}
			}()
			p.ShardedTick(8, func(shard, lo, hi int) {
				if shard == bad {
					panic(fmt.Sprint("span ", bad))
				}
			})
		}()
		var ran atomic.Int32
		p.ShardedTick(4, func(shard, lo, hi int) { ran.Add(int32(hi - lo)) })
		if ran.Load() != 4 {
			t.Fatalf("pool wedged after a panic in span %d: %d/4 items ran", bad, ran.Load())
		}
	}
}
