package trace

import (
	"math/rand"
	"testing"
)

var lfgSeeds = []int64{0, 1, -1, 42, 1 << 40, -(1 << 40), 89482311, 7919*63 + 17}

// TestLFGMatchesMathRand pins the one property everything downstream
// depends on: lfgSource reproduces rand.NewSource bit for bit — raw words
// and every derived draw the generators use (Float64, Intn, Int63), both
// through rand.Rand and through the direct float64/intn draws the
// generators call. A divergence here would silently shift every trace
// stream and with it every golden fingerprint.
func TestLFGMatchesMathRand(t *testing.T) {
	// Bounds cover both Intn paths (Int31n up to 2^31-1, Int63n above),
	// powers of two (masked) and non-powers (rejection sampled); 3<<29
	// and 3<<61 reject a quarter of their raw draws.
	bounds := []int{1, 2, 3, 64, 1000, 5000, 1 << 20, 3 << 29, 1<<31 - 1, 1 << 31, 1<<40 + 7, 3 << 61, 1 << 62}
	for _, seed := range lfgSeeds {
		ref := rand.New(rand.NewSource(seed))
		got := newLFG(seed)
		for i := 0; i < 2000; i++ {
			if r, g := ref.Float64(), got.float64(); r != g {
				t.Fatalf("seed %d draw %d: float64 %g != Float64 %g", seed, i, g, r)
			}
			for _, n := range bounds {
				if r, g := ref.Intn(n), got.intn(n); r != g {
					t.Fatalf("seed %d draw %d: intn(%d) %d != Intn %d", seed, i, n, g, r)
				}
			}
			// A raw word between rounds exposes a draw-count mismatch.
			if r, g := ref.Uint64(), got.Uint64(); r != g {
				t.Fatalf("seed %d draw %d: Uint64 %d != %d after direct draws", seed, i, g, r)
			}
		}
	}
	for _, seed := range lfgSeeds {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(newLFG(seed))
		for i := 0; i < 2000; i++ {
			if r, g := ref.Uint64(), got.Uint64(); r != g {
				t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, g, r)
			}
		}
		for i := 0; i < 2000; i++ {
			if r, g := ref.Float64(), got.Float64(); r != g {
				t.Fatalf("seed %d draw %d: Float64 %g != %g", seed, i, g, r)
			}
			if r, g := ref.Intn(5000), got.Intn(5000); r != g {
				t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, g, r)
			}
			if r, g := ref.Int63(), got.Int63(); r != g {
				t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, r)
			}
		}
	}
}

// TestLFGSaveRestore proves a restored register continues the exact
// stream, from any point, including mid-stream restores into a source
// seeded differently.
func TestLFGSaveRestore(t *testing.T) {
	src := newLFG(12345)
	for i := 0; i < 777; i++ {
		src.Uint64()
	}
	state := src.saveTo(nil)
	if len(state) != lfgStateLen {
		t.Fatalf("state length %d, want %d", len(state), lfgStateLen)
	}
	var want [100]uint64
	for i := range want {
		want[i] = src.Uint64()
	}
	other := newLFG(999) // deliberately different seed; restore must win
	rest, ok := other.loadFrom(state)
	if !ok {
		t.Fatal("loadFrom rejected a valid snapshot")
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	for i := range want {
		if got := other.Uint64(); got != want[i] {
			t.Fatalf("draw %d after restore: %d != %d", i, got, want[i])
		}
	}
	// Corrupt/short states are refused, not misparsed.
	if _, ok := other.loadFrom(state[:len(state)-1]); ok {
		t.Error("short snapshot accepted")
	}
	bad := append([]byte(nil), state...)
	bad[0], bad[1] = 0xff, 0xff // tap out of range
	if _, ok := other.loadFrom(bad); ok {
		t.Error("out-of-range cursor accepted")
	}
}
