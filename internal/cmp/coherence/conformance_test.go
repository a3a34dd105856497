package coherence

import (
	"testing"

	"heteronoc/internal/cmp/cache"
)

// recorder captures sent messages without delivering them.
type recorder struct{ msgs []Msg }

func (r *recorder) Send(m Msg, after int64) { r.msgs = append(r.msgs, m) }

func (r *recorder) take() []Msg {
	out := r.msgs
	r.msgs = nil
	return out
}

func (r *recorder) typesOnly() []MsgType {
	out := make([]MsgType, len(r.msgs))
	for i, m := range r.msgs {
		out[i] = m.Type
	}
	return out
}

func newRecordedL1(rec *recorder) *L1 {
	c := cache.New[bool](cache.Config{SizeBytes: 8 * 1024, Ways: 2, LineBytes: 128})
	return NewL1(1, c, rec, func(uint64) int { return 0 })
}

// install puts a line into the L1 in a given state without protocol
// traffic (test setup).
func install(l *L1, line uint64, st cache.State) {
	l.c.Insert(line, st, false)
}

// TestL1Conformance walks the requester-side state/event table.
func TestL1Conformance(t *testing.T) {
	const line = 0x40
	cases := []struct {
		name      string
		state     cache.State // Invalid means not present
		write     bool
		event     MsgType // 0 sentinel (use access) or an incoming message
		useAccess bool
		wantRes   AccessResult
		wantSent  []MsgType
		wantState cache.State
		wantHeld  bool
	}{
		{name: "I + load -> GetS", state: cache.Invalid, useAccess: true, write: false,
			wantRes: MissIssued, wantSent: []MsgType{GetS}, wantHeld: false},
		{name: "I + store -> GetM", state: cache.Invalid, useAccess: true, write: true,
			wantRes: MissIssued, wantSent: []MsgType{GetM}, wantHeld: false},
		{name: "S + load -> hit", state: cache.Shared, useAccess: true, write: false,
			wantRes: Hit, wantSent: nil, wantState: cache.Shared, wantHeld: true},
		{name: "S + store -> GetM upgrade drops S", state: cache.Shared, useAccess: true, write: true,
			wantRes: MissIssued, wantSent: []MsgType{GetM}, wantHeld: false},
		{name: "E + load -> hit", state: cache.Exclusive, useAccess: true, write: false,
			wantRes: Hit, wantSent: nil, wantState: cache.Exclusive, wantHeld: true},
		{name: "E + store -> silent M", state: cache.Exclusive, useAccess: true, write: true,
			wantRes: Hit, wantSent: nil, wantState: cache.Modified, wantHeld: true},
		{name: "M + store -> hit", state: cache.Modified, useAccess: true, write: true,
			wantRes: Hit, wantSent: nil, wantState: cache.Modified, wantHeld: true},
		{name: "S + Inv -> clean ack", state: cache.Shared, event: Inv,
			wantSent: []MsgType{InvAck}, wantHeld: false},
		{name: "M + Inv -> dirty ack", state: cache.Modified, event: Inv,
			wantSent: []MsgType{InvAck}, wantHeld: false},
		{name: "I + Inv -> ack anyway", state: cache.Invalid, event: Inv,
			wantSent: []MsgType{InvAck}, wantHeld: false},
		{name: "M + FwdGetS -> data + downgrade", state: cache.Modified, event: FwdGetS,
			wantSent: []MsgType{FwdAckData}, wantState: cache.Shared, wantHeld: true},
		{name: "E + FwdGetS -> clean data + downgrade", state: cache.Exclusive, event: FwdGetS,
			wantSent: []MsgType{FwdAckData}, wantState: cache.Shared, wantHeld: true},
		{name: "I + FwdGetS -> no data", state: cache.Invalid, event: FwdGetS,
			wantSent: []MsgType{FwdNoData}, wantHeld: false},
		{name: "M + FwdGetM -> data + invalidate", state: cache.Modified, event: FwdGetM,
			wantSent: []MsgType{FwdAckData}, wantHeld: false},
		{name: "E + FwdGetM -> data + invalidate", state: cache.Exclusive, event: FwdGetM,
			wantSent: []MsgType{FwdAckData}, wantHeld: false},
		{name: "I + FwdGetM -> no data", state: cache.Invalid, event: FwdGetM,
			wantSent: []MsgType{FwdNoData}, wantHeld: false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := &recorder{}
			l1 := newRecordedL1(rec)
			if c.state != cache.Invalid {
				install(l1, line, c.state)
			}
			if c.useAccess {
				res := l1.Access(line, c.write, func() {})
				if res != c.wantRes {
					t.Fatalf("result %v, want %v", res, c.wantRes)
				}
			} else {
				l1.Handle(Msg{Type: c.event, Line: line, Src: 0, Dst: 1})
			}
			got := rec.typesOnly()
			if len(got) != len(c.wantSent) {
				t.Fatalf("sent %v, want %v", got, c.wantSent)
			}
			for i := range got {
				if got[i] != c.wantSent[i] {
					t.Fatalf("sent %v, want %v", got, c.wantSent)
				}
			}
			st, held := l1.HasLine(line)
			if held != c.wantHeld {
				t.Fatalf("held=%v, want %v", held, c.wantHeld)
			}
			if held && st != c.wantState {
				t.Fatalf("state %v, want %v", st, c.wantState)
			}
		})
	}
}

// TestL1DirtyBitsOnResponses pins the Dirty flag of Inv/Fwd answers.
func TestL1DirtyBitsOnResponses(t *testing.T) {
	cases := []struct {
		state     cache.State
		event     MsgType
		wantDirty bool
	}{
		{cache.Modified, Inv, true},
		{cache.Shared, Inv, false},
		{cache.Exclusive, Inv, false},
		{cache.Modified, FwdGetS, true},
		{cache.Exclusive, FwdGetS, false},
		{cache.Modified, FwdGetM, true},
		{cache.Exclusive, FwdGetM, false},
	}
	for _, c := range cases {
		rec := &recorder{}
		l1 := newRecordedL1(rec)
		install(l1, 0x80, c.state)
		l1.Handle(Msg{Type: c.event, Line: 0x80, Src: 0, Dst: 1})
		msgs := rec.take()
		if len(msgs) != 1 {
			t.Fatalf("%v+%v: sent %v", c.state, c.event, msgs)
		}
		if msgs[0].Dirty != c.wantDirty {
			t.Errorf("%v+%v: dirty=%v, want %v", c.state, c.event, msgs[0].Dirty, c.wantDirty)
		}
	}
}

func newRecordedHome(rec *recorder) *Home {
	c := cache.New[DirEntry](cache.Config{SizeBytes: 64 * 1024, Ways: 4, LineBytes: 128})
	return NewHome(0, c, rec, func(uint64) int { return 99 })
}

// seedHome installs a line with a given directory state.
func seedHome(h *Home, line uint64, d DirEntry) {
	h.l2.Insert(line, cache.Shared, d)
}

// TestHomeConformance walks the directory-side state/event table.
func TestHomeConformance(t *testing.T) {
	const line = 0x100
	mkSharers := func(tiles ...int) uint64 {
		var m uint64
		for _, t := range tiles {
			m |= 1 << uint(t)
		}
		return m
	}
	cases := []struct {
		name     string
		dir      *DirEntry // nil = line absent from L2
		req      Msg
		wantSent []MsgType
		wantBusy bool
	}{
		{name: "miss + GetS -> MemRead", dir: nil,
			req:      Msg{Type: GetS, Line: line, Src: 1},
			wantSent: []MsgType{MemRead}, wantBusy: true},
		{name: "no copies + GetS -> DataE", dir: &DirEntry{Owner: -1},
			req:      Msg{Type: GetS, Line: line, Src: 1},
			wantSent: []MsgType{DataE}},
		{name: "sharers + GetS -> Data", dir: &DirEntry{Owner: -1, Sharers: mkSharers(2)},
			req:      Msg{Type: GetS, Line: line, Src: 1},
			wantSent: []MsgType{Data}},
		{name: "owned + GetS -> FwdGetS", dir: &DirEntry{Owner: 2},
			req:      Msg{Type: GetS, Line: line, Src: 1},
			wantSent: []MsgType{FwdGetS}, wantBusy: true},
		{name: "no copies + GetM -> DataM", dir: &DirEntry{Owner: -1},
			req:      Msg{Type: GetM, Line: line, Src: 1},
			wantSent: []MsgType{DataM}},
		{name: "two sharers + GetM -> two Invs", dir: &DirEntry{Owner: -1, Sharers: mkSharers(2, 3)},
			req:      Msg{Type: GetM, Line: line, Src: 1},
			wantSent: []MsgType{Inv, Inv}, wantBusy: true},
		{name: "requester-is-sharer + GetM -> DataM (no self-inv)", dir: &DirEntry{Owner: -1, Sharers: mkSharers(1)},
			req:      Msg{Type: GetM, Line: line, Src: 1},
			wantSent: []MsgType{DataM}},
		{name: "owned + GetM -> FwdGetM", dir: &DirEntry{Owner: 2},
			req:      Msg{Type: GetM, Line: line, Src: 1},
			wantSent: []MsgType{FwdGetM}, wantBusy: true},
		{name: "owner writes back -> WBAck", dir: &DirEntry{Owner: 1},
			req:      Msg{Type: PutM, Line: line, Src: 1, Dirty: true},
			wantSent: []MsgType{WBAck}},
		{name: "stale PutM from non-owner -> WBAck only", dir: &DirEntry{Owner: 2},
			req:      Msg{Type: PutM, Line: line, Src: 1, Dirty: true},
			wantSent: []MsgType{WBAck}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := &recorder{}
			h := newRecordedHome(rec)
			if c.dir != nil {
				seedHome(h, line, *c.dir)
			}
			h.Handle(c.req)
			got := rec.typesOnly()
			if len(got) != len(c.wantSent) {
				t.Fatalf("sent %v, want %v", got, c.wantSent)
			}
			for i := range got {
				if got[i] != c.wantSent[i] {
					t.Fatalf("sent %v, want %v", got, c.wantSent)
				}
			}
			if h.Busy(line) != c.wantBusy {
				t.Fatalf("busy=%v, want %v", h.Busy(line), c.wantBusy)
			}
		})
	}
}

// TestHomeStalePutMKeepsOwner ensures a racing write-back from a previous
// owner does not clobber the new owner's registration.
func TestHomeStalePutMKeepsOwner(t *testing.T) {
	rec := &recorder{}
	h := newRecordedHome(rec)
	seedHome(h, 0x200, DirEntry{Owner: 3})
	h.Handle(Msg{Type: PutM, Line: 0x200, Src: 1, Dirty: true})
	d, ok := h.Directory(0x200)
	if !ok || d.Owner != 3 {
		t.Fatalf("directory %+v after stale PutM, want owner 3", d)
	}
}

// TestHomeRequestsQueueBehindBusyLine pins the serialization behavior.
func TestHomeRequestsQueueBehindBusyLine(t *testing.T) {
	rec := &recorder{}
	h := newRecordedHome(rec)
	seedHome(h, 0x300, DirEntry{Owner: 2})
	h.Handle(Msg{Type: GetS, Line: 0x300, Src: 1}) // busy: FwdGetS out
	rec.take()
	h.Handle(Msg{Type: GetM, Line: 0x300, Src: 4})
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("request to busy line emitted %v", got)
	}
	if h.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", h.Pending())
	}
	// Owner answers; the queued GetM must then run (FwdGetM or Invs).
	h.Handle(Msg{Type: FwdAckData, Line: 0x300, Src: 2, Dirty: true})
	got := rec.take()
	if len(got) < 2 { // Data to reader + something for the queued writer
		t.Fatalf("completion emitted %v", got)
	}
	if got[0].Type != Data {
		t.Fatalf("first message %v, want Data", got[0].Type)
	}
	if h.Pending() != 0 {
		t.Error("queue not drained")
	}
}
