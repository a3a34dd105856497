package coherence

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/cmp/cache"
)

// warmBranches names the transaction paths TestWarmMatchesDrain must
// exercise. Each is recognized in the reference drain's messages.
var warmBranches = []string{
	"clean recall",
	"dirty recall",
	"FwdGetS to a holding owner",
	"FwdGetS to an owner that dropped the line",
	"FwdGetM",
	"Inv of sharers",
	"S->M upgrade",
	"dirty L1 eviction",
}

// TestWarmMatchesDrain drives Warm and the FIFO message drain with the
// same random read/write streams and requires the same state after every
// access: every line's tag, state, payload and LRU stamp, each cache's
// tick, hits, misses and evictions, and every controller counter. The
// caches are tiny (2-way L1s of two sets, L2 banks of four 2-way sets)
// and the footprint is four times the L2, so recalls, forwards and
// write-backs are frequent; every branch in warmBranches must run.
func TestWarmMatchesDrain(t *testing.T) {
	seen := map[string]int{}
	for n := 1; n <= 8; n++ {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("tiles=%d/seed=%d", n, seed), func(t *testing.T) {
				warmMatchesDrain(t, n, seed, 2000, seen)
			})
		}
	}
	for _, b := range warmBranches {
		if seen[b] == 0 {
			t.Errorf("no access took the %s path", b)
		}
	}
	t.Logf("paths taken: %v", seen)
}

func warmMatchesDrain(t *testing.T, n int, seed int64, accesses int, seen map[string]int) {
	shift := uint(0)
	for 1<<shift < n {
		shift++
	}
	homeFor := func(line uint64) int { return int(line % uint64(n)) }
	l1 := cache.Config{SizeBytes: 4 * 128, Ways: 2, LineBytes: 128}
	l2 := cache.Config{SizeBytes: 8 * 128, Ways: 2, LineBytes: 128, IndexShiftBits: shift}
	ref := buildFabric(t, n, homeFor, l1, l2)
	got := buildFabric(t, n, homeFor, l1, l2)
	var msgs []Msg
	ref.tap = func(m Msg) { msgs = append(msgs, m) }

	rng := rand.New(rand.NewSource(seed))
	footprint := 4 * n * 8
	hot := 3 * n
	for k := 0; k < accesses; k++ {
		tile := rng.Intn(n)
		line := uint64(rng.Intn(footprint))
		if rng.Intn(5) < 2 {
			line = uint64(rng.Intn(hot))
		}
		write := rng.Intn(3) == 0

		if st, ok := ref.l1s[tile].HasLine(line); ok && st == cache.Shared && write {
			seen["S->M upgrade"]++
		}
		recalls, memWrites := homeTotals(ref)
		msgs = msgs[:0]
		if res := ref.l1s[tile].Access(line, write, func() {}); res == Blocked || res == Coalesced {
			t.Fatalf("access %d: reference access %v", k, res)
		}
		ref.run()
		Warm(got.l1s, got.homes, tile, line, write)
		classify(msgs, recalls, memWrites, ref, seen)

		if got.sent != 0 {
			t.Fatalf("access %d: Warm sent %d messages", k, got.sent)
		}
		for i := range n {
			for _, part := range []struct {
				name     string
				ref, got []byte
			}{
				{"L1", encodeL1(t, ref.l1s[i]), encodeL1(t, got.l1s[i])},
				{"home", encodeHome(t, ref.homes[i]), encodeHome(t, got.homes[i])},
			} {
				if !bytes.Equal(part.ref, part.got) {
					t.Fatalf("access %d (tile %d, line %#x, write %t): tile %d's %s differs from the drain's", k, tile, line, write, i, part.name)
				}
			}
		}
	}
}

// homeTotals sums the recall and memory write-back counters of f's homes.
func homeTotals(f *fabric) (recalls, memWrites int64) {
	for _, h := range f.homes {
		recalls += h.Recalls
		memWrites += h.MemWrites
	}
	return recalls, memWrites
}

// classify counts the paths one reference access took, from the messages
// it sent and the home counters before it.
func classify(msgs []Msg, recalls, memWrites int64, ref *fabric, seen map[string]int) {
	r, w := homeTotals(ref)
	recalled := r > recalls
	if recalled && w == memWrites {
		seen["clean recall"]++
	}
	var fwdS bool
	for _, m := range msgs {
		switch {
		case m.Type == InvAck && m.Dirty && recalled:
			seen["dirty recall"]++
		case m.Type == Inv && !recalled:
			seen["Inv of sharers"]++
		case m.Type == FwdGetS:
			fwdS = true
		case m.Type == FwdGetM:
			seen["FwdGetM"]++
		case m.Type == FwdAckData && fwdS:
			seen["FwdGetS to a holding owner"]++
		case m.Type == FwdNoData && fwdS:
			seen["FwdGetS to an owner that dropped the line"]++
		case m.Type == PutM:
			seen["dirty L1 eviction"]++
		}
	}
}

// encodeL1 writes an L1's checkpointed state (every line with its LRU
// stamp, and the cache counters) followed by its controller counters.
func encodeL1(t *testing.T, l *L1) []byte {
	w := ckpt.NewWriter(ckpt.Header{Kind: "warm-test", Version: 1})
	if err := l.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{l.Hits, l.Misses, l.Coalesces, l.Blocks, l.Upgrades, l.Invalidations} {
		w.I64(v)
	}
	return w.Finish()
}

// encodeHome writes a home's checkpointed state (every L2 line with its
// directory entry and LRU stamp, and the cache counters) followed by its
// controller counters.
func encodeHome(t *testing.T, h *Home) []byte {
	w := ckpt.NewWriter(ckpt.Header{Kind: "warm-test", Version: 1})
	if err := h.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{h.L2Hits, h.L2Misses, h.Recalls, h.MemReads, h.MemWrites} {
		w.I64(v)
	}
	return w.Finish()
}
