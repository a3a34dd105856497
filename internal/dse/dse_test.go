package dse

import "testing"

func TestCombinationsMatchPaper(t *testing.T) {
	// Footnote 4: 1820, 8008 and 12870 candidate placements on a 4x4 mesh.
	cases := []struct {
		k    int
		want int64
	}{{4, 1820}, {6, 8008}, {8, 12870}}
	for _, c := range cases {
		if got := Combinations(16, c.k).Int64(); got != c.want {
			t.Errorf("C(16,%d) = %d, want %d", c.k, got, c.want)
		}
	}
	// And the 8x8 infeasibility number: C(64,16) = 4.89e14.
	v := Combinations(64, 16)
	if v.String() != "488526937079580" {
		t.Errorf("C(64,16) = %s", v)
	}
}

func TestEnumerateCountsWithoutSymmetry(t *testing.T) {
	n := Enumerate(4, 4, 2, false, func([]int) bool { return true })
	if n != 120 { // C(16,2)
		t.Errorf("enumerated %d placements, want 120", n)
	}
}

func TestEnumerateSymmetryReduction(t *testing.T) {
	full := Enumerate(4, 4, 2, false, func([]int) bool { return true })
	reduced := Enumerate(4, 4, 2, true, func([]int) bool { return true })
	if reduced >= full {
		t.Fatalf("symmetry reduction did not reduce: %d vs %d", reduced, full)
	}
	// Burnside: orbits of 2-subsets of the 4x4 grid under D4 = 21.
	if reduced != 21 {
		t.Errorf("reduced count %d, want 21", reduced)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	calls := 0
	Enumerate(4, 4, 3, false, func([]int) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Errorf("early stop after %d calls, want 5", calls)
	}
}

func TestSymmetryIsPermutation(t *testing.T) {
	for s := 0; s < 8; s++ {
		seen := map[[2]int]bool{}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				nx, ny := symmetry(s, x, y, 4, 4)
				if nx < 0 || nx >= 4 || ny < 0 || ny >= 4 {
					t.Fatalf("symmetry %d maps (%d,%d) out of grid: (%d,%d)", s, x, y, nx, ny)
				}
				if seen[[2]int{nx, ny}] {
					t.Fatalf("symmetry %d is not injective", s)
				}
				seen[[2]int{nx, ny}] = true
			}
		}
	}
}

func TestExploreRanksCandidates(t *testing.T) {
	res, err := Explore(EvalConfig{
		W: 4, H: 4, BigCount: 4, LinkRedist: true,
		InjectionRate: 0.05, Packets: 400,
		MaxCandidates: 12, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 12 {
		t.Fatalf("got %d candidates", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Saturated == res[i].Saturated && res[i-1].AvgLatency > res[i].AvgLatency {
			t.Fatal("candidates not sorted by latency")
		}
	}
}

func TestDiagonalScore(t *testing.T) {
	results := []Candidate{
		{Big: []int{1, 2, 3, 4, 5, 6, 7, 8}},
		{Big: []int{0, 3, 5, 6, 9, 10, 12, 15}}, // 4x4 diagonals (both)
	}
	rank, found := DiagonalScore(results, 4, 4)
	if !found || rank != 2 {
		t.Errorf("diagonal rank = %d found=%v, want 2 true", rank, found)
	}
}
