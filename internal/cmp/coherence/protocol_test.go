package coherence

import (
	"math/rand"
	"testing"

	"heteronoc/internal/cmp/cache"
)

// fabric is a zero-latency FIFO transport connecting L1s, homes and a
// perfect memory for protocol unit tests.
type fabric struct {
	t     *testing.T
	l1s   []*L1
	homes []*Home
	mcT   int // terminal id of the fake memory controller
	q     []Msg
	sent  int
	// tap, when set, sees every message as it is sent.
	tap func(Msg)
}

func (f *fabric) Send(m Msg, after int64) {
	f.q = append(f.q, m)
	f.sent++
	if f.tap != nil {
		f.tap(m)
	}
}

// run delivers messages until quiescent.
func (f *fabric) run() {
	for steps := 0; len(f.q) > 0; steps++ {
		if steps > 100000 {
			f.t.Fatal("protocol did not quiesce")
		}
		m := f.q[0]
		f.q = f.q[1:]
		switch {
		case m.Dst == f.mcT:
			if m.Type == MemRead {
				f.Send(Msg{Type: MemData, Line: m.Line, Src: f.mcT, Dst: m.Src}, 0)
			}
			// MemWrite needs no reply.
		case m.Type == GetS || m.Type == GetM || m.Type == PutM || m.Type == InvAck ||
			m.Type == FwdAckData || m.Type == FwdNoData || m.Type == MemData:
			f.homes[m.Dst].Handle(m)
		default:
			f.l1s[m.Dst].Handle(m)
		}
	}
}

// newFabric builds n tiles all homed on tile 0 for deterministic tests.
func newFabric(t *testing.T, n int) *fabric {
	return buildFabric(t, n, func(uint64) int { return 0 },
		cache.Config{SizeBytes: 32 * 1024, Ways: 4, LineBytes: 128},
		cache.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 128})
}

// buildFabric builds n tiles with the given home mapping, L1 geometry
// and L2 bank geometry.
func buildFabric(t *testing.T, n int, homeFor func(uint64) int, l1, l2 cache.Config) *fabric {
	f := &fabric{t: t, mcT: n}
	mcFor := func(line uint64) int { return f.mcT }
	for i := 0; i < n; i++ {
		f.l1s = append(f.l1s, NewL1(i, cache.New[bool](l1), f, homeFor))
		f.homes = append(f.homes, NewHome(i, cache.New[DirEntry](l2), f, mcFor))
	}
	return f
}

func (f *fabric) read(tile int, line uint64, done *bool) {
	res := f.l1s[tile].Access(line, false, func() { *done = true })
	if res == Blocked {
		f.t.Fatalf("tile %d read of %#x blocked", tile, line)
	}
	f.run()
}

func (f *fabric) write(tile int, line uint64, done *bool) {
	res := f.l1s[tile].Access(line, true, func() { *done = true })
	if res == Blocked {
		f.t.Fatalf("tile %d write of %#x blocked", tile, line)
	}
	f.run()
}

func TestReadMissGetsExclusive(t *testing.T) {
	f := newFabric(t, 2)
	var done bool
	f.read(1, 0x10, &done)
	if !done {
		t.Fatal("read did not complete")
	}
	st, ok := f.l1s[1].HasLine(0x10)
	if !ok || st != cache.Exclusive {
		t.Fatalf("first reader has %v,%v, want E", st, ok)
	}
	d, ok := f.homes[0].Directory(0x10)
	if !ok || d.Owner != 1 {
		t.Fatalf("directory %+v, want owner 1", d)
	}
}

func TestSecondReaderSharesAndDowngradesOwner(t *testing.T) {
	f := newFabric(t, 3)
	var d1, d2 bool
	f.read(1, 0x10, &d1)
	f.read(2, 0x10, &d2)
	if !d1 || !d2 {
		t.Fatal("reads incomplete")
	}
	st1, _ := f.l1s[1].HasLine(0x10)
	st2, _ := f.l1s[2].HasLine(0x10)
	if st1 != cache.Shared || st2 != cache.Shared {
		t.Fatalf("states %v/%v, want S/S", st1, st2)
	}
	dir, _ := f.homes[0].Directory(0x10)
	if dir.Owner != -1 || dir.Sharers != (1<<1)|(1<<2) {
		t.Fatalf("directory %+v", dir)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	f := newFabric(t, 4)
	var d bool
	f.read(1, 0x20, &d)
	f.read(2, 0x20, &d)
	f.read(3, 0x20, &d)
	var wd bool
	f.write(1, 0x20, &wd)
	if !wd {
		t.Fatal("write did not complete")
	}
	if st, ok := f.l1s[1].HasLine(0x20); !ok || st != cache.Modified {
		t.Fatalf("writer state %v,%v, want M", st, ok)
	}
	for _, tile := range []int{2, 3} {
		if _, ok := f.l1s[tile].HasLine(0x20); ok {
			t.Errorf("tile %d still holds an invalidated line", tile)
		}
	}
	dir, _ := f.homes[0].Directory(0x20)
	if dir.Owner != 1 || dir.Sharers != 0 {
		t.Fatalf("directory %+v, want owner=1 no sharers", dir)
	}
}

func TestWriteToOwnedLineForwards(t *testing.T) {
	f := newFabric(t, 3)
	var d bool
	f.write(1, 0x30, &d) // tile 1 becomes M owner
	var d2 bool
	f.write(2, 0x30, &d2) // tile 2 steals ownership via FwdGetM
	if !d2 {
		t.Fatal("second write incomplete")
	}
	if _, ok := f.l1s[1].HasLine(0x30); ok {
		t.Error("old owner still holds the line")
	}
	if st, _ := f.l1s[2].HasLine(0x30); st != cache.Modified {
		t.Errorf("new owner state %v, want M", st)
	}
	dir, _ := f.homes[0].Directory(0x30)
	if dir.Owner != 2 || !dir.Dirty {
		t.Fatalf("directory %+v", dir)
	}
}

func TestReadFromModifiedOwnerDowngrades(t *testing.T) {
	f := newFabric(t, 3)
	var d bool
	f.write(1, 0x40, &d)
	var d2 bool
	f.read(2, 0x40, &d2)
	if !d2 {
		t.Fatal("read incomplete")
	}
	st1, _ := f.l1s[1].HasLine(0x40)
	st2, _ := f.l1s[2].HasLine(0x40)
	if st1 != cache.Shared || st2 != cache.Shared {
		t.Fatalf("states %v/%v, want S/S", st1, st2)
	}
	dir, _ := f.homes[0].Directory(0x40)
	if !dir.Dirty {
		t.Error("dirty data not captured at home")
	}
	if dir.Sharers != (1<<1)|(1<<2) || dir.Owner != -1 {
		t.Fatalf("directory %+v", dir)
	}
}

func TestSilentEUpgradeThenRead(t *testing.T) {
	f := newFabric(t, 3)
	var d bool
	f.read(1, 0x50, &d) // E
	var wd bool
	f.write(1, 0x50, &wd) // silent E->M
	if f.l1s[1].Upgrades != 1 {
		t.Fatal("no silent upgrade recorded")
	}
	var rd bool
	f.read(2, 0x50, &rd) // must retrieve dirty data via FwdGetS
	if !rd {
		t.Fatal("read incomplete")
	}
	dir, _ := f.homes[0].Directory(0x50)
	if !dir.Dirty {
		t.Error("silently modified data lost")
	}
}

func TestL1EvictionWritesBack(t *testing.T) {
	f := newFabric(t, 2)
	// L1: 32KB/4way/128B = 64 sets. Write 5 lines mapping to set 0.
	var d bool
	for i := 0; i < 5; i++ {
		f.write(1, uint64(i*64), &d)
	}
	// First line must have been written back; directory owner cleared.
	dir, ok := f.homes[0].Directory(0)
	if !ok {
		t.Fatal("line 0 not at home")
	}
	if dir.Owner == 1 {
		t.Error("evicted line still owned")
	}
	if !dir.Dirty {
		t.Error("write-back lost dirty data")
	}
	if len(f.l1s[1].wb) != 0 {
		t.Error("write-back buffer not drained")
	}
}

func TestSingleWriterInvariant(t *testing.T) {
	// Random workload across 4 tiles and a small line pool; after every
	// quiesced step, at most one L1 may hold a line in E/M, and if one
	// does, no other L1 may hold it at all.
	f := newFabric(t, 4)
	rng := rand.New(rand.NewSource(42))
	lines := []uint64{0, 1, 2, 3, 64, 65, 128, 129}
	for step := 0; step < 3000; step++ {
		tile := rng.Intn(4)
		line := lines[rng.Intn(len(lines))]
		var d bool
		if rng.Intn(2) == 0 {
			f.read(tile, line, &d)
		} else {
			f.write(tile, line, &d)
		}
		if !d {
			t.Fatal("access incomplete after quiesce")
		}
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
				t.Fatalf("step %d: line %#x has %d owners", step, line, owners)
			}
			if owners == 1 && holders > 1 {
				t.Fatalf("step %d: line %#x owned but %d holders", step, line, holders)
			}
		}
	}
}

func TestDirectoryMatchesL1s(t *testing.T) {
	// After a random quiesced workload, the directory's view must cover
	// reality: every L1 holding a line is recorded as owner or sharer.
	f := newFabric(t, 4)
	rng := rand.New(rand.NewSource(7))
	lines := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	for step := 0; step < 2000; step++ {
		tile := rng.Intn(4)
		line := lines[rng.Intn(len(lines))]
		var d bool
		if rng.Intn(3) == 0 {
			f.write(tile, line, &d)
		} else {
			f.read(tile, line, &d)
		}
	}
	for _, line := range lines {
		dir, ok := f.homes[0].Directory(line)
		if !ok {
			continue
		}
		for tile, l1 := range f.l1s {
			if _, holds := l1.HasLine(line); holds {
				recorded := int(dir.Owner) == tile || dir.Sharers&(1<<uint(tile)) != 0
				if !recorded {
					t.Errorf("line %#x held by tile %d but directory says %+v", line, tile, dir)
				}
			}
		}
	}
}

func TestL2RecallInvalidatesL1Copies(t *testing.T) {
	f := newFabric(t, 2)
	// Tiny L2 to force recalls: 4KB/2way/128B = 16 sets, set collisions at
	// lines 16 apart.
	f.homes[0] = NewHome(0, cache.New[DirEntry](cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 128}),
		f, func(uint64) int { return f.mcT })
	var d bool
	f.read(1, 0, &d)  // set 0
	f.read(1, 16, &d) // set 0, second way
	f.read(1, 32, &d) // set 0 -> recall of line 0
	if f.homes[0].Recalls == 0 {
		t.Fatal("no recall happened")
	}
	if _, ok := f.l1s[1].HasLine(0); ok {
		t.Error("recalled line still cached in L1 (inclusion violated)")
	}
	if _, ok := f.homes[0].Directory(0); ok {
		t.Error("recalled line still in L2")
	}
	if st, _ := f.l1s[1].HasLine(32); st != cache.Exclusive {
		t.Error("new line not filled after recall")
	}
}

func TestDirtyRecallWritesToMemory(t *testing.T) {
	f := newFabric(t, 2)
	f.homes[0] = NewHome(0, cache.New[DirEntry](cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 128}),
		f, func(uint64) int { return f.mcT })
	var d bool
	f.write(1, 0, &d)
	f.read(1, 16, &d)
	before := f.homes[0].MemWrites
	f.read(1, 32, &d) // recalls dirty line 0
	if f.homes[0].MemWrites != before+1 {
		t.Errorf("dirty recall produced %d writes, want %d", f.homes[0].MemWrites, before+1)
	}
}

func TestMSHRLimitBlocks(t *testing.T) {
	f := newFabric(t, 2)
	f.l1s[1].MaxMSHR = 2
	n := 0
	// Issue without running the fabric so misses stay outstanding.
	for i := 0; i < 3; i++ {
		res := f.l1s[1].Access(uint64(i), false, func() { n++ })
		if i < 2 && res != MissIssued {
			t.Fatalf("access %d = %v, want MissIssued", i, res)
		}
		if i == 2 && res != Blocked {
			t.Fatalf("access 2 = %v, want Blocked", res)
		}
	}
	f.run()
	if n != 2 {
		t.Errorf("%d fills, want 2", n)
	}
}

func TestCoalescing(t *testing.T) {
	f := newFabric(t, 2)
	n := 0
	if res := f.l1s[1].Access(7, false, func() { n++ }); res != MissIssued {
		t.Fatal("first access should miss")
	}
	if res := f.l1s[1].Access(7, false, func() { n++ }); res != Coalesced {
		t.Fatal("second access should coalesce")
	}
	f.run()
	if n != 2 {
		t.Errorf("%d callbacks, want 2", n)
	}
	if f.l1s[1].Coalesces != 1 {
		t.Errorf("coalesce count %d", f.l1s[1].Coalesces)
	}
}

func TestUpgradeRace(t *testing.T) {
	// Two sharers upgrade simultaneously; home serializes: both complete,
	// final owner is the second writer.
	f := newFabric(t, 3)
	var d bool
	f.read(1, 0x60, &d)
	f.read(2, 0x60, &d)
	var d1, d2 bool
	r1 := f.l1s[1].Access(0x60, true, func() { d1 = true })
	r2 := f.l1s[2].Access(0x60, true, func() { d2 = true })
	if r1 == Blocked || r2 == Blocked {
		t.Fatal("upgrades blocked")
	}
	f.run()
	if !d1 || !d2 {
		t.Fatalf("upgrades incomplete: %v %v", d1, d2)
	}
	owners := 0
	for _, l1 := range f.l1s {
		if st, ok := l1.HasLine(0x60); ok && st == cache.Modified {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d M owners after racing upgrades, want 1", owners)
	}
}

func TestPendingQueueDrains(t *testing.T) {
	f := newFabric(t, 4)
	// Stack several requests for one line without delivering messages.
	var n int
	f.l1s[1].Access(0x70, true, func() { n++ })
	f.l1s[2].Access(0x70, true, func() { n++ })
	f.l1s[3].Access(0x70, false, func() { n++ })
	f.run()
	if n != 3 {
		t.Fatalf("%d accesses completed, want 3", n)
	}
	if f.homes[0].Pending() != 0 {
		t.Error("home still has queued requests")
	}
	if f.homes[0].Busy(0x70) {
		t.Error("line still busy")
	}
}

func TestPrefetcherIssuesAndCounts(t *testing.T) {
	f := newFabric(t, 2)
	f.l1s[1].PrefetchNextLine = true
	var d bool
	f.read(1, 0x10, &d) // demand miss -> prefetch 0x11
	if f.l1s[1].PrefetchesIssued != 1 {
		t.Fatalf("prefetches issued %d, want 1", f.l1s[1].PrefetchesIssued)
	}
	if _, ok := f.l1s[1].HasLine(0x11); !ok {
		t.Fatal("prefetched line not installed")
	}
	// Demand access to the prefetched line: a hit counted as useful.
	var d2 bool
	res := f.l1s[1].Access(0x11, false, func() { d2 = true })
	if res != Hit || !d2 {
		t.Fatalf("prefetched line access = %v", res)
	}
	if f.l1s[1].PrefetchesUseful != 1 {
		t.Errorf("useful prefetches %d, want 1", f.l1s[1].PrefetchesUseful)
	}
}

func TestPrefetcherRespectsMSHRBudget(t *testing.T) {
	f := newFabric(t, 2)
	f.l1s[1].PrefetchNextLine = true
	f.l1s[1].MaxMSHR = 2
	// Issue without draining: the demand miss takes one MSHR; the
	// prefetcher must not take the last one.
	res := f.l1s[1].Access(0x20, false, func() {})
	if res != MissIssued {
		t.Fatal("demand miss blocked")
	}
	if f.l1s[1].Outstanding() != 1 {
		t.Fatalf("outstanding %d: prefetch consumed the reserve MSHR", f.l1s[1].Outstanding())
	}
	f.run()
}

func TestPrefetchedLineCoherent(t *testing.T) {
	// A prefetched copy must still be tracked: a writer elsewhere has to
	// invalidate it.
	f := newFabric(t, 3)
	f.l1s[1].PrefetchNextLine = true
	var d bool
	f.read(1, 0x30, &d) // prefetches 0x31 into tile 1
	if _, ok := f.l1s[1].HasLine(0x31); !ok {
		t.Fatal("prefetch missing")
	}
	var wd bool
	f.write(2, 0x31, &wd)
	if _, ok := f.l1s[1].HasLine(0x31); ok {
		t.Fatal("stale prefetched copy survived a remote write")
	}
}
