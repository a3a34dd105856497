package runcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoMemoizes(t *testing.T) {
	Reset()
	defer Reset()
	calls := 0
	fn := func(context.Context) (any, error) { calls++; return calls, nil }
	for i := 0; i < 3; i++ {
		v, err := ForCtx(context.Background(), "k", fn)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 1 {
			t.Fatalf("call %d: got %v, want memoized 1", i, v)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if hit, miss := Stats(); hit != 2 || miss != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2/1", hit, miss)
	}
}

func TestDoDistinctKeys(t *testing.T) {
	Reset()
	defer Reset()
	for i := 0; i < 3; i++ {
		v, _ := ForCtx(context.Background(), fmt.Sprintf("k%d", i), func(context.Context) (any, error) { return i, nil })
		if v.(int) != i {
			t.Fatalf("key k%d returned %v", i, v)
		}
	}
	if hit, miss := Stats(); hit != 0 || miss != 3 {
		t.Fatalf("stats = %d/%d, want 0 hits / 3 misses", hit, miss)
	}
}

func TestErrorsAreMemoized(t *testing.T) {
	Reset()
	defer Reset()
	sentinel := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := ForCtx(context.Background(), "bad", func(context.Context) (any, error) { calls++; return nil, sentinel })
		if !errors.Is(err, sentinel) {
			t.Fatalf("call %d: err = %v, want sentinel", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing fn ran %d times, want 1 (errors are deterministic too)", calls)
	}
}

func TestDisabledBypasses(t *testing.T) {
	Reset()
	defer func() { SetEnabled(true); Reset() }()
	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() = true after SetEnabled(false)")
	}
	calls := 0
	for i := 0; i < 3; i++ {
		v, _ := ForCtx(context.Background(), "k", func(context.Context) (any, error) { calls++; return calls, nil })
		if v.(int) != i+1 {
			t.Fatalf("disabled cache returned stale value %v on call %d", v, i)
		}
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times with cache disabled, want 3", calls)
	}
	if hit, miss := Stats(); hit != 0 || miss != 3 {
		t.Fatalf("stats = %d/%d, want 0 hits / 3 misses", hit, miss)
	}
}

func TestSingleflight(t *testing.T) {
	Reset()
	defer Reset()
	const callers = 16
	var calls atomic.Int64
	var start, done sync.WaitGroup
	start.Add(1)
	results := make([]int, callers)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			v, err := ForCtx(context.Background(), "shared", func(context.Context) (any, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v.(int)
		}(i)
	}
	start.Done()
	done.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times under %d concurrent callers, want 1", n, callers)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	if hit, miss := Stats(); hit+miss != callers || miss != 1 {
		t.Fatalf("stats = %d/%d, want %d total with exactly 1 miss", hit, miss, callers)
	}
}

func TestForTyped(t *testing.T) {
	Reset()
	defer Reset()
	type result struct{ X int }
	v, err := ForCtx(context.Background(), "typed", func(context.Context) (result, error) { return result{X: 7}, nil })
	if err != nil || v.X != 7 {
		t.Fatalf("For = %+v, %v", v, err)
	}
	v, err = ForCtx(context.Background(), "typed", func(context.Context) (result, error) { return result{X: 99}, nil })
	if err != nil || v.X != 7 {
		t.Fatalf("second For = %+v, %v, want memoized X=7", v, err)
	}
	// A nil any (from an error path) must come back as the zero T, not panic.
	bad, err := ForCtx(context.Background(), "typed-err", func(context.Context) (*result, error) { return nil, errors.New("no") })
	if bad != nil || err == nil {
		t.Fatalf("For error path = %v, %v", bad, err)
	}
}

func TestReset(t *testing.T) {
	Reset()
	defer Reset()
	if _, err := ForCtx(context.Background(), "k", func(context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	Reset()
	calls := 0
	if _, err := ForCtx(context.Background(), "k", func(context.Context) (any, error) { calls++; return 2, nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("Reset did not drop the entry")
	}
	if hit, miss := Stats(); hit != 0 || miss != 1 {
		t.Fatalf("stats after Reset = %d/%d, want 0/1", hit, miss)
	}
}
