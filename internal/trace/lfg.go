package trace

// lfgSource is a snapshot-able reimplementation of the additive
// lagged-Fibonacci generator behind math/rand.NewSource (Mitchell & Reeds:
// x[n] = x[n-273] + x[n-607], seeded by a Lehmer LCG chain XORed with the
// precomputed lfgCooked register — see lfgcooked.go). It produces streams
// bit-identical to rand.NewSource for every seed, which is what lets the
// trace generators swap it in without perturbing a single golden
// fingerprint (TestLFGMatchesMathRand pins this), while adding the one
// capability math/rand withholds: the full register can be saved and
// restored, so a generator's position is O(1) serializable state instead
// of a replay-only RNG stream. That direct state restore is what turns
// cmp warm-checkpoint restore from an O(warmup) Next() replay into a
// fixed-size copy (see cmp.RestoreWarmSnapshot).
//
// lfgSource implements both rand.Source and rand.Source64, exactly like
// the stdlib's rngSource, so rand.Rand drives it through the same Uint64
// path and every derived draw (Float64, Intn, ...) matches. The generators
// skip rand.Rand altogether: float64 and intn below repeat its
// conversions draw for draw, without the interface call per draw.

import "encoding/binary"

const (
	lfgLen  = 607
	lfgTap  = 273
	lfgMask = 1<<63 - 1

	lfgInt32Max = 1<<31 - 1
)

// lfgSource is the feedback register plus its two cursors.
type lfgSource struct {
	tap  int
	feed int
	vec  [lfgLen]int64
}

// newLFG returns a seeded source, equivalent to rand.NewSource(seed).
func newLFG(seed int64) *lfgSource {
	s := &lfgSource{}
	s.Seed(seed)
	return s
}

// lfgSeedrand advances the Lehmer chain x[n+1] = 48271 * x[n] mod (2^31-1)
// used only during seeding.
func lfgSeedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += lfgInt32Max
	}
	return x
}

// Seed initializes the register deterministically from seed, reproducing
// rngSource.Seed exactly.
func (s *lfgSource) Seed(seed int64) {
	s.tap = 0
	s.feed = lfgLen - lfgTap
	seed %= lfgInt32Max
	if seed < 0 {
		seed += lfgInt32Max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < lfgLen; i++ {
		x = lfgSeedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = lfgSeedrand(x)
			u ^= int64(x) << 20
			x = lfgSeedrand(x)
			u ^= int64(x)
			u ^= lfgCooked[i]
			s.vec[i] = u
		}
	}
}

// Uint64 returns the next raw 64-bit word (rand.Source64).
func (s *lfgSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfgLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfgLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the masked 63-bit value (rand.Source).
func (s *lfgSource) Int63() int64 {
	return int64(s.Uint64() & lfgMask)
}

// float64 is (*rand.Rand).Float64: Int63/2^63, resampled when the
// division rounds up to 1.
func (s *lfgSource) float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// intn is (*rand.Rand).Intn: Int31n while n fits in an int32, Int63n
// above. Both mask powers of two and otherwise reject draws above the
// largest multiple of n, so the number of raw draws matches too.
func (s *lfgSource) intn(n int) int {
	if n <= 0 {
		panic("trace: intn of a non-positive bound")
	}
	if n <= lfgInt32Max {
		n32 := int32(n)
		if n32&(n32-1) == 0 {
			return int(int32(s.Int63()>>32) & (n32 - 1))
		}
		max := int32(1<<31 - 1 - (1<<31)%uint32(n32))
		v := int32(s.Int63() >> 32)
		for v > max {
			v = int32(s.Int63() >> 32)
		}
		return int(v % n32)
	}
	n64 := int64(n)
	if n64&(n64-1) == 0 {
		return int(s.Int63() & (n64 - 1))
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n64))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return int(v % n64)
}

// lfgStateLen is the encoded size of a register snapshot: two cursor
// bytes' worth of varint would be variable, so everything is fixed-width
// little-endian for a predictable, trivially validated layout.
const lfgStateLen = 2*2 + lfgLen*8

// saveTo appends the full register state (cursors + vector) to dst.
func (s *lfgSource) saveTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(s.tap))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(s.feed))
	for _, v := range s.vec {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// loadFrom restores a register snapshot written by saveTo, returning the
// remaining bytes, or false if the buffer is short or the cursors are out
// of range.
func (s *lfgSource) loadFrom(b []byte) ([]byte, bool) {
	if len(b) < lfgStateLen {
		return nil, false
	}
	tap := int(binary.LittleEndian.Uint16(b[0:2]))
	feed := int(binary.LittleEndian.Uint16(b[2:4]))
	if tap >= lfgLen || feed >= lfgLen {
		return nil, false
	}
	s.tap, s.feed = tap, feed
	for i := 0; i < lfgLen; i++ {
		s.vec[i] = int64(binary.LittleEndian.Uint64(b[4+i*8:]))
	}
	return b[lfgStateLen:], true
}
