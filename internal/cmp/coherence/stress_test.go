package coherence

import (
	"math/rand"
	"testing"

	"heteronoc/internal/cmp/cache"
)

// chaosFabric delivers messages in a randomized global order while
// preserving per-(src,dst) FIFO order — exactly the guarantee the real
// system's NI reorder buffers provide over the unordered wormhole network.
// Memory requests are also delayed randomly.
type chaosFabric struct {
	t     *testing.T
	rng   *rand.Rand
	l1s   []*L1
	homes []*Home
	mcT   int
	pairs map[[2]int][]Msg
	keys  [][2]int
}

func newChaosFabric(t *testing.T, n int, seed int64) *chaosFabric {
	f := &chaosFabric{t: t, rng: rand.New(rand.NewSource(seed)), mcT: n, pairs: map[[2]int][]Msg{}}
	homeFor := func(line uint64) int { return int(line) % n }
	mcFor := func(line uint64) int { return f.mcT }
	for i := 0; i < n; i++ {
		l1c := cache.New[bool](cache.Config{SizeBytes: 8 * 1024, Ways: 2, LineBytes: 128})
		f.l1s = append(f.l1s, NewL1(i, l1c, f, homeFor))
		l2c := cache.New[DirEntry](cache.Config{SizeBytes: 64 * 1024, Ways: 4, LineBytes: 128})
		f.homes = append(f.homes, NewHome(i, l2c, f, mcFor))
	}
	return f
}

func (f *chaosFabric) Send(m Msg, after int64) {
	k := [2]int{m.Src, m.Dst}
	if len(f.pairs[k]) == 0 {
		f.keys = append(f.keys, k)
	}
	f.pairs[k] = append(f.pairs[k], m)
}

// deliverOne pops the head of a random pair queue.
func (f *chaosFabric) deliverOne() bool {
	for len(f.keys) > 0 {
		i := f.rng.Intn(len(f.keys))
		k := f.keys[i]
		q := f.pairs[k]
		if len(q) == 0 {
			f.keys[i] = f.keys[len(f.keys)-1]
			f.keys = f.keys[:len(f.keys)-1]
			continue
		}
		m := q[0]
		f.pairs[k] = q[1:]
		f.route(m)
		return true
	}
	return false
}

func (f *chaosFabric) route(m Msg) {
	switch {
	case m.Dst == f.mcT:
		if m.Type == MemRead {
			f.Send(Msg{Type: MemData, Line: m.Line, Src: f.mcT, Dst: m.Src}, 0)
		}
	case m.Type == GetS || m.Type == GetM || m.Type == PutM || m.Type == InvAck ||
		m.Type == FwdAckData || m.Type == FwdNoData || m.Type == MemData:
		f.homes[m.Dst].Handle(m)
	default:
		f.l1s[m.Dst].Handle(m)
	}
}

func (f *chaosFabric) drain(max int) {
	for i := 0; i < max; i++ {
		if !f.deliverOne() {
			return
		}
	}
	f.t.Fatal("protocol did not quiesce under chaos delivery")
}

// TestProtocolChaos drives random reads/writes through small caches (to
// force evictions, write-backs and recalls) under randomized message
// interleavings, checking the single-writer invariant continuously.
func TestProtocolChaos(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		f := newChaosFabric(t, 4, seed)
		rng := rand.New(rand.NewSource(seed * 77))
		lines := make([]uint64, 24)
		for i := range lines {
			lines[i] = uint64(i * 3) // spread over homes and sets
		}
		completed := 0
		for step := 0; step < 4000; step++ {
			tile := rng.Intn(4)
			line := lines[rng.Intn(len(lines))]
			res := f.l1s[tile].Access(line, rng.Intn(3) == 0, func() { completed++ })
			_ = res
			// Deliver a random burst, leaving messages in flight between
			// accesses to maximize overlap.
			for i := 0; i < rng.Intn(6); i++ {
				f.deliverOne()
			}
			if step%64 == 0 {
				f.drain(100000)
				f.checkInvariants(lines)
			}
		}
		f.drain(1000000)
		f.checkInvariants(lines)
		if completed == 0 {
			t.Fatal("no accesses completed")
		}
	}
}

func (f *chaosFabric) checkInvariants(lines []uint64) {
	f.t.Helper()
	for _, line := range lines {
		owners, holders := 0, 0
		for _, l1 := range f.l1s {
			if st, ok := l1.HasLine(line); ok {
				holders++
				if st == cache.Exclusive || st == cache.Modified {
					owners++
				}
			}
		}
		if owners > 1 {
			f.t.Fatalf("line %#x: %d owners", line, owners)
		}
		if owners == 1 && holders > 1 {
			f.t.Fatalf("line %#x: owned with %d holders", line, holders)
		}
	}
}
