package noc

import (
	"runtime"
	"testing"
	"time"
)

// TestCloseReleasesPoolGoroutines pins the shard pool's lifecycle: Close
// and SetShardWorkers(0) join the worker goroutines, Close is idempotent,
// re-arming with a different count replaces the pool, and the network
// stays usable sequentially throughout. This is the leak-audit companion
// to the experiments package's end-to-end goroutine test — the shard pool
// is the only construct in the simulator that outlives a Step call.
func TestCloseReleasesPoolGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	settle := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if got := runtime.NumGoroutine(); got <= want {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want at most %d", what, got, want)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	n := newMeshNet(t)
	run := func(cycles int, what string) {
		t.Helper()
		cyc := n.Cycle()
		for i := 0; i < cycles; i++ {
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if n.Cycle() != cyc+int64(cycles) {
			t.Fatalf("%s: network stopped advancing: %d -> %d", what, cyc, n.Cycle())
		}
	}
	n.SetShardWorkers(4)
	n.Inject(&Packet{Src: 0, Dst: 63, NumFlits: 4})
	run(50, "4 workers")
	n.Close()
	n.Close() // idempotent
	settle(before, "after Close")

	// The closed network keeps stepping on the sequential kernel.
	run(20, "after Close")

	// Re-arming with a different count replaces the pool: a pool of 3
	// holds 2 worker goroutines, and arming 2 over it leaves 1.
	n.SetShardWorkers(3)
	run(20, "3 workers")
	if got := runtime.NumGoroutine(); got < before+2 {
		t.Fatalf("3 workers: %d goroutines, want at least %d", got, before+2)
	}
	n.SetShardWorkers(2)
	run(20, "2 workers")
	settle(before+1, "re-armed from 3 to 2 workers")
	if n.ShardWorkers() != 2 {
		t.Fatalf("ShardWorkers() = %d after re-arming with 2", n.ShardWorkers())
	}

	// SetShardWorkers(0) releases the pool like Close.
	n.SetShardWorkers(0)
	settle(before, "after SetShardWorkers(0)")
	if n.ShardWorkers() != 0 {
		t.Fatalf("ShardWorkers() = %d after SetShardWorkers(0)", n.ShardWorkers())
	}
	run(20, "after SetShardWorkers(0)")
}
