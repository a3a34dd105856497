package noc

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/fault"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// injEvent is one scheduled injection. Snapshot tests drive traffic from
// precomputed schedules so the exact same packets arrive in both the
// straight-through and the checkpoint-restored run (the RNG itself lives
// outside the Network and is not checkpointed).
type injEvent struct {
	cycle    int64
	src, dst int
	flits    int
}

func makeSchedule(seed int64, terminals int, cycles int64, rate float64, flits int) []injEvent {
	rng := rand.New(rand.NewSource(seed))
	var evs []injEvent
	for c := int64(1); c <= cycles; c++ {
		for s := 0; s < terminals; s++ {
			if rng.Float64() < rate {
				evs = append(evs, injEvent{cycle: c, src: s, dst: rng.Intn(terminals), flits: flits})
			}
		}
	}
	return evs
}

// playSchedule advances net to endCycle, injecting due events. Injection
// errors (dead terminals, unroutable destinations) are expected during
// fault runs and are skipped identically on every replay.
func playSchedule(t testing.TB, n *Network, evs []injEvent, next int, endCycle int64) int {
	t.Helper()
	for n.Cycle() < endCycle {
		at := n.Cycle() + 1 // packets created at the top of the next cycle
		for next < len(evs) && evs[next].cycle <= at {
			e := evs[next]
			next++
			_ = n.TryInject(&Packet{Src: e.src, Dst: e.dst, NumFlits: e.flits})
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return next
}

type snapCase struct {
	name    string
	build   func(t testing.TB) *Network
	seed    int64
	rate    float64
	flits   int
	mid     int64 // checkpoint cycle
	end     int64
	workers int
}

func snapCases() []snapCase {
	mk := func(workers int) func(t testing.TB) *Network {
		return func(t testing.TB) *Network {
			n := newMeshNet(t)
			if workers > 0 {
				n.SetShardWorkers(workers)
				t.Cleanup(n.Close)
			}
			return n
		}
	}
	faulty := func(t testing.TB) *Network {
		m := topology.NewMesh(8, 8)
		plan := &fault.Plan{}
		plan.FailLink(400, m.RouterAt(3, 3), topology.PortEast)
		plan.FailRouter(700, m.RouterAt(5, 5))
		// Transient window straddling the checkpoint cycle (600): the
		// snapshot is taken mid-window with the drop mode active.
		plan.AddTransient(550, m.RouterAt(2, 2), topology.PortEast, 120, false)
		plan.AddTransient(590, m.RouterAt(4, 1), topology.PortNorth, 80, true)
		return faultMeshNet(t, plan)
	}
	hetero := func(t testing.TB) *Network {
		n := heteroDiagonalNet(t)
		n.SetShardWorkers(2)
		t.Cleanup(n.Close)
		return n
	}
	return []snapCase{
		{name: "mesh_low", build: mk(0), seed: 11, rate: 0.02, flits: 6, mid: 500, end: 1500},
		{name: "mesh_high", build: mk(0), seed: 12, rate: 0.06, flits: 6, mid: 777, end: 1600},
		{name: "sharded2", build: mk(2), seed: 13, rate: 0.05, flits: 6, mid: 640, end: 1500, workers: 2},
		{name: "faults_midwindow", build: faulty, seed: 14, rate: 0.04, flits: 6, mid: 600, end: 2000},
		// Diagonal+BL: wide links, two NI streams per wide terminal and
		// unequal VC counts, with 8-flit data packets at 128-bit flits.
		{name: "hetero_diagonal_bl", build: hetero, seed: 15, rate: 0.04, flits: 8, mid: 555, end: 1500, workers: 2},
	}
}

// TestSnapshotRoundTripMidRun checkpoints at an arbitrary mid-run cycle,
// restores into a fresh network, finishes the run, and requires the final
// fingerprint to be bit-identical to the straight-through run — including
// mid-fault-window and with the restored network running sharded.
func TestSnapshotRoundTripMidRun(t *testing.T) {
	for _, tc := range snapCases() {
		t.Run(tc.name, func(t *testing.T) {
			evs := makeSchedule(tc.seed, 64, tc.end, tc.rate, tc.flits)

			straight := tc.build(t)
			playSchedule(t, straight, evs, 0, tc.end)
			want := straight.Fingerprint()

			orig := tc.build(t)
			next := playSchedule(t, orig, evs, 0, tc.mid)
			midFP := orig.Fingerprint()
			data, err := orig.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}

			// The snapshot itself records the mid-run fingerprint.
			h, err := ckpt.ReadHeader(data)
			if err != nil {
				t.Fatal(err)
			}
			if h.Fingerprint != midFP || h.Cycle != tc.mid {
				t.Fatalf("header (cycle %d, fp %016x) != live (cycle %d, fp %016x)",
					h.Cycle, h.Fingerprint, tc.mid, midFP)
			}

			restored := tc.build(t)
			if err := restored.RestoreSnapshot(data); err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			if err := restored.CheckInvariants(); err != nil {
				t.Fatalf("restored network invariants: %v", err)
			}
			playSchedule(t, restored, evs, next, tc.end)
			if got := restored.Fingerprint(); got != want {
				t.Errorf("restored run fingerprint %016x != straight-through %016x", got, want)
			}

			// The original, uninterrupted by the snapshot, must also finish
			// identically: Snapshot is observation-only.
			playSchedule(t, orig, evs, next, tc.end)
			if got := orig.Fingerprint(); got != want {
				t.Errorf("snapshotted-then-continued fingerprint %016x != straight-through %016x", got, want)
			}
		})
	}
}

// TestSnapshotRestoreAcrossWorkerCounts restores one checkpoint into
// networks running with 1, 2 and GOMAXPROCS shard workers; all must
// finish bit-identical to the sequential straight-through run.
func TestSnapshotRestoreAcrossWorkerCounts(t *testing.T) {
	const seed, mid, end = 21, 600, 1500
	evs := makeSchedule(seed, 64, end, 0.05, 6)

	straight := newMeshNet(t)
	playSchedule(t, straight, evs, 0, end)
	want := straight.Fingerprint()

	orig := newMeshNet(t)
	next := playSchedule(t, orig, evs, 0, mid)
	data, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		restored := newMeshNet(t)
		restored.SetShardWorkers(workers)
		t.Cleanup(restored.Close)
		if err := restored.RestoreSnapshot(data); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		playSchedule(t, restored, evs, next, end)
		if got := restored.Fingerprint(); got != want {
			t.Errorf("workers=%d: fingerprint %016x != sequential %016x", workers, got, want)
		}
	}
}

// TestSnapshotRejectsMismatchedTarget verifies a checkpoint refuses to
// load into a differently shaped network instead of corrupting it.
func TestSnapshotRejectsMismatchedTarget(t *testing.T) {
	n := newMeshNet(t)
	data, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// A smaller mesh differs in router count; a 4x16 mesh has the same 64
	// routers and terminals as the 8x8 source but a different corner/edge
	// radix pattern, so only the per-router signature catches it. The error
	// must name the mismatched dimension, not just fail opaquely.
	for _, tc := range []struct{ w, h int }{{4, 4}, {4, 16}} {
		m := topology.NewMesh(tc.w, tc.h)
		target, err := New(Config{
			Topo:          m,
			Routing:       routing.NewXY(m),
			Routers:       []RouterConfig{{VCs: 3, BufDepth: 5}},
			FlitWidthBits: 192,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = target.RestoreSnapshot(data)
		if err == nil {
			t.Fatalf("restore into a %dx%d mesh accepted an 8x8 checkpoint", tc.w, tc.h)
		}
		if !strings.Contains(err.Error(), "count") && !strings.Contains(err.Error(), "topology") {
			t.Errorf("%dx%d mismatch error does not name the dimension: %v", tc.w, tc.h, err)
		}
	}

	// A stepped target is not fresh.
	stepped := newMeshNet(t)
	if err := stepped.Step(); err != nil {
		t.Fatal(err)
	}
	if err := stepped.RestoreSnapshot(data); err == nil {
		t.Fatal("restore into a stepped network was accepted")
	}

	// Neither is a target an earlier restore wrote into, whether that
	// restore succeeded or failed.
	once := newMeshNet(t)
	if err := once.RestoreSnapshot(data); err != nil {
		t.Fatal(err)
	}
	if err := once.RestoreSnapshot(data); err == nil {
		t.Fatal("second restore into a restored network was accepted")
	}
	failed := newMeshNet(t)
	if err := failed.RestoreSnapshot(data[:len(data)-1]); err == nil {
		t.Fatal("truncated checkpoint restored")
	}
	if err := failed.RestoreSnapshot(data); err == nil {
		t.Fatal("restore into the target of a failed restore was accepted")
	}
}

// TestSnapshotCompactQuiesced pins down the v2 steady-state compaction: a
// quiesced 32x32 (1024-router) network — idle VCs one flag byte, quiet
// output ports one flag varint — must checkpoint into a few bytes per
// router rather than spelling out pristine credit arrays and empty event
// queues, and the compact checkpoint must still restore bit-identically.
func TestSnapshotCompactQuiesced(t *testing.T) {
	build := func() *Network {
		m := topology.NewMesh(32, 32)
		n, err := New(Config{
			Topo:           m,
			Routing:        routing.NewXY(m),
			Routers:        []RouterConfig{{VCs: 3, BufDepth: 5}},
			FlitWidthBits:  192,
			WatchdogCycles: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := build()
	evs := makeSchedule(71, 1024, 60, 0.02, 6)
	playSchedule(t, n, evs, 0, 60)
	runUntilQuiesced(t, n, 1<<20)
	data, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// ~5 ports x (1-byte flag + occasional arb/stats group) + 3 idle-VC
	// bytes per port per router, plus per-router stat varints: well under
	// 128 bytes/router. The pre-compaction format needed several hundred.
	if max := 128 * 1024; len(data) > max {
		t.Errorf("quiesced 32x32 checkpoint is %d bytes, want <= %d", len(data), max)
	}
	restored := build()
	if err := restored.RestoreSnapshot(data); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored network invariants: %v", err)
	}
	// Re-snapshotting the restored network must reproduce the checkpoint
	// byte for byte: the compact form never encodes stale scratch fields,
	// so canonicalization is idempotent.
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Errorf("restore-then-snapshot differs from original checkpoint (%d vs %d bytes)", len(again), len(data))
	}
}

// TestSnapshotCorruptionIsRejected flips bytes across the checkpoint and
// requires every corruption to be caught (by CRC) rather than restored.
func TestSnapshotCorruptionIsRejected(t *testing.T) {
	n := newMeshNet(t)
	evs := makeSchedule(31, 64, 300, 0.05, 6)
	playSchedule(t, n, evs, 0, 300)
	data, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i += len(data)/64 + 1 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x20
		target := newMeshNet(t)
		if err := target.RestoreSnapshot(bad); err == nil {
			t.Fatalf("corrupted byte %d restored without error", i)
		}
	}
	if err := newMeshNet(t).RestoreSnapshot(data[:len(data)/2]); err == nil {
		t.Fatal("truncated checkpoint restored without error")
	}
}
