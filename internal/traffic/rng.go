package traffic

import "math/rand"

// countingSource wraps the standard source and counts Int63 draws, so a
// suspended run can record its RNG position and a resume can replay to
// it. It deliberately does NOT implement rand.Source64: rand.Rand then
// derives every variate (Float64, Intn, Uint64, ...) from Int63 alone,
// which makes "number of Int63 calls" a complete description of the
// stream position — and keeps the sequence bit-identical to the plain
// rand.NewSource source the runs used before suspension existed. Seed 0
// means 42.
type countingSource struct {
	src rand.Source
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	if seed == 0 {
		seed = 42
	}
	return &countingSource{src: rand.NewSource(seed)}
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// draws returns how many Int63 values have been consumed.
func (s *countingSource) draws() uint64 { return s.n }

// skip fast-forwards the source by discarding draws until n values have
// been consumed in total. Resume-time cost is linear in the recorded
// position (~100ms per hundred million draws), far below re-simulating.
func (s *countingSource) skip(n uint64) {
	for s.n < n {
		s.src.Int63()
		s.n++
	}
}
