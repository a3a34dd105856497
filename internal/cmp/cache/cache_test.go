package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newSmall() *Cache[string] {
	return New[string](Config{SizeBytes: 4096, Ways: 4, LineBytes: 64}) // 16 sets
}

func TestLookupMissThenHit(t *testing.T) {
	c := newSmall()
	if _, ok := c.Lookup(5); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(5, Shared, "")
	l, ok := c.Lookup(5)
	if !ok || l.Tag != 5 || l.State != Shared {
		t.Fatalf("lookup after insert: %+v %v", l, ok)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := newSmall()
	// Fill one set: addresses congruent mod 16.
	for i := 0; i < 4; i++ {
		c.Insert(uint64(16*i), Shared, "")
	}
	// Touch line 0 to make it MRU; line 16 becomes LRU.
	c.Lookup(0)
	ev, had := c.Insert(64, Shared, "")
	if !had || ev.Tag != 16 {
		t.Fatalf("evicted %+v (had=%v), want tag 16", ev, had)
	}
	if _, ok := c.Lookup(0); !ok {
		t.Error("MRU line evicted")
	}
}

func TestInsertPrefersInvalidWay(t *testing.T) {
	c := newSmall()
	c.Insert(0, Shared, "")
	if _, had := c.Insert(16, Shared, ""); had {
		t.Error("evicted despite free ways")
	}
}

func TestInvalidate(t *testing.T) {
	c := newSmall()
	c.Insert(7, Modified, "meta")
	old, ok := c.Invalidate(7)
	if !ok || old.State != Modified || old.Payload != "meta" {
		t.Fatalf("invalidate returned %+v %v", old, ok)
	}
	if _, ok := c.Peek(7); ok {
		t.Error("line still present after invalidate")
	}
	if _, ok := c.Invalidate(7); ok {
		t.Error("double invalidate succeeded")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := newSmall()
	c.Insert(3, Shared, "")
	defer func() {
		if recover() == nil {
			t.Error("double insert did not panic")
		}
	}()
	c.Insert(3, Exclusive, "")
}

func TestLineAddr(t *testing.T) {
	c := New[string](Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 128})
	if got := c.LineAddr(0x1234); got != 0x1234>>7 {
		t.Errorf("LineAddr = %#x", got)
	}
	if c.LineBytes() != 128 {
		t.Error("line bytes wrong")
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	c := newSmall()
	rng := rand.New(rand.NewSource(1))
	f := func(addr uint16) bool {
		la := uint64(addr % 512)
		if _, ok := c.Peek(la); !ok {
			c.Insert(la, Shared, "")
		}
		return c.Occupancy() <= 64
	}
	if err := quick.Check(f, &quick.Config{Rand: rng, MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPeekDoesNotAffectStats(t *testing.T) {
	c := newSmall()
	c.Insert(1, Shared, "")
	h, m := c.Hits, c.Misses
	c.Peek(1)
	c.Peek(2)
	if c.Hits != h || c.Misses != m {
		t.Error("peek changed statistics")
	}
}

func TestForEach(t *testing.T) {
	c := newSmall()
	for i := uint64(0); i < 10; i++ {
		c.Insert(i, Shared, "")
	}
	n := 0
	c.ForEach(func(l *Line[string]) { n++ })
	if n != 10 {
		t.Errorf("visited %d lines, want 10", n)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("state strings wrong")
	}
	if Invalid.Valid() || !Modified.Valid() {
		t.Error("validity wrong")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 0, Ways: 4, LineBytes: 64},
		{SizeBytes: 4096, Ways: 3, LineBytes: 64},  // 64 lines not divisible by 3
		{SizeBytes: 4096, Ways: 4, LineBytes: 100}, // not a power of two
	} {
		func() {
			defer func() { recover() }()
			New[string](cfg)
			t.Errorf("config %+v accepted", cfg)
		}()
	}
}
