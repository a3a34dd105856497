package coherence

import (
	"strings"
	"testing"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/cmp/cache"
)

// l2Line is one L2 line as a home checkpoint encodes it.
type l2Line struct {
	idx     int
	tag     uint64
	state   uint64
	owner   int64
	sharers uint64
}

// decodeHome encodes lines as the checkpoint of a 4KB, 2-way, 128B-line
// L2 (16 sets: line index i belongs to set i/2, tag t to set t%16) and
// decodes it into a fresh home of a tiles-tile system.
func decodeHome(t *testing.T, tiles int, lines ...l2Line) (*Home, error) {
	t.Helper()
	w := ckpt.NewWriter(ckpt.Header{Kind: "home-test"})
	w.Int(32)                // line slots
	w.I64(int64(len(lines))) // LRU tick
	w.I64(0)                 // hits
	w.I64(0)                 // misses
	w.I64(0)                 // evictions
	w.Int(len(lines))        // valid lines
	for k, ln := range lines {
		w.Int(ln.idx)
		w.U64(ln.tag)
		w.U64(ln.state)
		w.I64(int64(k + 1)) // LRU stamp
		w.Bool(true)        // directory entry present
		w.I64(ln.owner)
		w.U64(ln.sharers)
		w.Bool(false) // dirty
	}
	r, err := ckpt.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHome(0, cache.New[DirEntry](cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 128}),
		&recorder{}, func(uint64) int { return 0 })
	return h, h.DecodeState(r, tiles)
}

// wantReject fails unless err is a decode error mentioning want.
func wantReject(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("decoder accepted the checkpoint, want an error about %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestHomeDecodeAcceptsWellFormedState(t *testing.T) {
	h, err := decodeHome(t, 4,
		l2Line{idx: 0, tag: 0x10, state: uint64(cache.Shared), owner: -1, sharers: 0b1010},
		l2Line{idx: 1, tag: 0x20, state: uint64(cache.Shared), owner: 3},
		l2Line{idx: 3, tag: 0x31, state: uint64(cache.Modified), owner: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		line uint64
		want DirEntry
	}{{0x10, DirEntry{Owner: -1, Sharers: 0b1010}}, {0x20, DirEntry{Owner: 3}}, {0x31, DirEntry{Owner: 0}}} {
		if d, ok := h.Directory(c.line); !ok || d != c.want {
			t.Errorf("line %#x: directory %+v (present %t), want %+v", c.line, d, ok, c.want)
		}
	}
}

// An owner outside [-1, tiles) is rejected before it is narrowed to
// int16, so 65536 cannot wrap to tile 0 (nor 65535 to -1).
func TestHomeDecodeRejectsOwnerOutsideTiles(t *testing.T) {
	for _, owner := range []int64{1000, 65536, 65535, 4, -2} {
		_, err := decodeHome(t, 4, l2Line{idx: 0, tag: 0x10, state: uint64(cache.Shared), owner: owner})
		wantReject(t, err, "owner")
	}
}

func TestHomeDecodeRejectsSharersBeyondTiles(t *testing.T) {
	_, err := decodeHome(t, 4, l2Line{idx: 0, tag: 0x10, state: uint64(cache.Shared), owner: -1, sharers: 1 << 4})
	wantReject(t, err, "sharers")
}

func TestHomeDecodeRejectsStateOutsideSEM(t *testing.T) {
	// 257 would narrow to Shared and 256 to Invalid if read as a byte.
	for _, st := range []uint64{uint64(cache.Invalid), 4, 200, 256, 257} {
		_, err := decodeHome(t, 4, l2Line{idx: 0, tag: 0x10, state: st, owner: -1})
		wantReject(t, err, "state")
	}
}

func TestHomeDecodeRejectsTagInAnotherSet(t *testing.T) {
	// Slot 2 belongs to set 1; tag 0x10 maps to set 0, so lookups of 0x10
	// would miss it and a refill would hold a second copy.
	_, err := decodeHome(t, 4, l2Line{idx: 2, tag: 0x10, state: uint64(cache.Shared), owner: -1})
	wantReject(t, err, "maps to another set")
}

func TestHomeDecodeRejectsDuplicateTagInSet(t *testing.T) {
	_, err := decodeHome(t, 4,
		l2Line{idx: 0, tag: 0x10, state: uint64(cache.Shared), owner: -1},
		l2Line{idx: 1, tag: 0x10, state: uint64(cache.Shared), owner: 2})
	wantReject(t, err, "repeats tag")
}

func TestHomeDecodeRejectsLineIndexOutOfOrder(t *testing.T) {
	for _, idx := range [][2]int{{1, 1}, {1, 0}, {0, 32}, {-1, 0}} {
		_, err := decodeHome(t, 4,
			l2Line{idx: idx[0], tag: 0x10, state: uint64(cache.Shared), owner: -1},
			l2Line{idx: idx[1], tag: 0x20, state: uint64(cache.Shared), owner: -1})
		wantReject(t, err, "line index")
	}
}
