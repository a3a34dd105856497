package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file keeps the original single-queue FR-FCFS scheduler as a
// test-only reference implementation. The production Controller keeps one
// FIFO per bank and visits only free banks with waiting requests;
// TestScheduleMatchesReference requires its grants, completion order and
// counters to stay identical to this linear rescan of every queued
// request.

// refController is the original controller: one arrival-ordered queue
// rescanned for every free bank on every schedule call.
type refController struct {
	Latency       int64
	RowHitLatency int64
	Banks         int
	RowLines      uint64

	bankFree []int64
	openRow  []uint64
	rowValid []bool
	queue    []*Request
	inFlight reqHeap
	out      []*Request

	RowHits          int64
	TotalQueueDelay  int64
	TotalServiceTime int64
	Completed        int64
}

func newRefController(latency, rowHitLatency int64, banks int, rowLines uint64) *refController {
	return &refController{
		Latency: latency, RowHitLatency: rowHitLatency, Banks: banks, RowLines: rowLines,
		bankFree: make([]int64, banks),
		openRow:  make([]uint64, banks),
		rowValid: make([]bool, banks),
	}
}

func (c *refController) bankOf(line uint64) int   { return int((line / c.RowLines) % uint64(c.Banks)) }
func (c *refController) rowOf(line uint64) uint64 { return line / c.RowLines / uint64(c.Banks) }

func (c *refController) Enqueue(r *Request, now int64) {
	r.Arrived = now
	c.queue = append(c.queue, r)
	c.schedule(now)
}

func (c *refController) schedule(now int64) {
	if len(c.queue) == 0 {
		return
	}
	for {
		moved := false
		for bank := 0; bank < c.Banks; bank++ {
			if c.bankFree[bank] > now {
				continue
			}
			// First ready: oldest row hit for this bank, else oldest
			// request for this bank.
			pick := -1
			for i, r := range c.queue {
				if c.bankOf(r.Line) != bank {
					continue
				}
				if c.rowValid[bank] && c.rowOf(r.Line) == c.openRow[bank] {
					pick = i
					break // queue is FIFO: first hit is the oldest hit
				}
				if pick < 0 {
					pick = i
				}
			}
			if pick < 0 {
				continue
			}
			r := c.queue[pick]
			c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
			lat := c.Latency
			if c.rowValid[bank] && c.rowOf(r.Line) == c.openRow[bank] {
				lat = c.RowHitLatency
				c.RowHits++
			}
			c.openRow[bank] = c.rowOf(r.Line)
			c.rowValid[bank] = true
			r.done = now + lat
			c.bankFree[bank] = r.done
			c.TotalQueueDelay += now - r.Arrived
			c.inFlight.push(r)
			moved = true
		}
		if !moved {
			return
		}
	}
}

func (c *refController) Tick(now int64) []*Request {
	c.out = c.out[:0]
	c.schedule(now)
	for len(c.inFlight) > 0 && c.inFlight[0].done <= now {
		r := c.inFlight.pop()
		c.Completed++
		c.TotalServiceTime += r.done - r.Arrived
		c.out = append(c.out, r)
	}
	return c.out
}

func (c *refController) QueueLen() int { return len(c.queue) }

// bankFreeReset re-sizes the per-bank state after a test changes Banks.
func (c *Controller) bankFreeReset() { c.banks = make([]bank, c.Banks) }

// schedCase is one randomized stream configuration.
type schedCase struct {
	name          string
	banks         int
	rowLines      uint64
	latency, hit  int64
	hotBank       bool // every line maps to bank 0
	rows          int  // distinct rows per bank the stream touches
	maxBurst      int  // most enqueues in one cycle
	maxGap        int64
	pooledFromPct int // share of requests enqueued through EnqueueLine
}

// completion identifies a finished request and when it finished.
type completion struct {
	id    int
	line  uint64
	write bool
	done  int64
}

func (c completion) String() string {
	return fmt.Sprintf("#%d line %#x write=%t done %d", c.id, c.line, c.write, c.done)
}

// runSchedStream drives the per-bank controller and the reference with the
// same random enqueue/tick stream and fails on the first divergence.
func runSchedStream(t *testing.T, tc schedCase, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got := NewController(0)
	got.Latency, got.RowHitLatency, got.Banks, got.RowLines = tc.latency, tc.hit, tc.banks, tc.rowLines
	got.bankFreeReset()
	ref := newRefController(tc.latency, tc.hit, tc.banks, tc.rowLines)

	line := func() uint64 {
		b := uint64(rng.Intn(tc.banks))
		if tc.hotBank {
			b = 0
		}
		row := uint64(rng.Intn(tc.rows))
		col := uint64(rng.Intn(int(tc.rowLines)))
		return (row*uint64(tc.banks)+b)*tc.rowLines + col
	}
	// Home carries the request id through both controllers; pooled
	// requests are identified the same way.
	id := 0
	var now int64
	for step := 0; step < 3000; step++ {
		now += rng.Int63n(tc.maxGap + 1)
		for k := rng.Intn(tc.maxBurst + 1); k > 0; k-- {
			l, w := line(), rng.Intn(4) == 0
			if rng.Intn(100) < tc.pooledFromPct {
				got.EnqueueLine(l, id, w, now)
			} else {
				got.Enqueue(&Request{Line: l, Home: id, Write: w}, now)
			}
			ref.Enqueue(&Request{Line: l, Home: id, Write: w}, now)
			id++
			if got.QueueLen() != ref.QueueLen() {
				t.Fatalf("seed %d step %d: QueueLen %d after enqueue, reference %d", seed, step, got.QueueLen(), ref.QueueLen())
			}
		}
		g, r := got.Tick(now), ref.Tick(now)
		if len(g) != len(r) {
			t.Fatalf("seed %d cycle %d: %d completions, reference %d", seed, now, len(g), len(r))
		}
		for i := range g {
			gc := completion{g[i].Home, g[i].Line, g[i].Write, g[i].done}
			rc := completion{r[i].Home, r[i].Line, r[i].Write, r[i].done}
			if gc != rc {
				t.Fatalf("seed %d cycle %d completion %d: got %v, reference %v", seed, now, i, gc, rc)
			}
		}
		if got.RowHits != ref.RowHits || got.TotalQueueDelay != ref.TotalQueueDelay ||
			got.TotalServiceTime != ref.TotalServiceTime || got.Completed != ref.Completed ||
			got.QueueLen() != ref.QueueLen() {
			t.Fatalf("seed %d cycle %d: counters (hits %d delay %d service %d done %d queue %d), reference (%d %d %d %d %d)",
				seed, now, got.RowHits, got.TotalQueueDelay, got.TotalServiceTime, got.Completed, got.QueueLen(),
				ref.RowHits, ref.TotalQueueDelay, ref.TotalServiceTime, ref.Completed, ref.QueueLen())
		}
	}
	if got.Completed == 0 || got.RowHits == 0 {
		t.Fatalf("seed %d: degenerate stream (%d completed, %d row hits)", seed, got.Completed, got.RowHits)
	}
}

// TestScheduleMatchesReference pins the per-bank scheduler to the original
// linear scan on randomized enqueue/tick streams: the same completions in
// the same order at the same cycles, and identical RowHits,
// TotalQueueDelay and QueueLen after every step.
func TestScheduleMatchesReference(t *testing.T) {
	cases := []schedCase{
		{name: "default", banks: 8, rowLines: 64, latency: 400, hit: 200, rows: 4, maxBurst: 3, maxGap: 60, pooledFromPct: 50},
		{name: "one-bank", banks: 1, rowLines: 64, latency: 400, hit: 200, rows: 3, maxBurst: 2, maxGap: 150},
		{name: "hot-bank", banks: 8, rowLines: 64, latency: 400, hit: 200, hotBank: true, rows: 3, maxBurst: 1, maxGap: 300},
		{name: "zero-latency", banks: 8, rowLines: 4, latency: 0, hit: 0, rows: 3, maxBurst: 6, maxGap: 2, pooledFromPct: 100},
		{name: "zero-hit-latency", banks: 4, rowLines: 4, latency: 7, hit: 0, rows: 2, maxBurst: 5, maxGap: 3},
		{name: "zero-miss-latency", banks: 2, rowLines: 8, latency: 0, hit: 3, rows: 3, maxBurst: 4, maxGap: 2},
		{name: "odd-geometry", banks: 3, rowLines: 5, latency: 11, hit: 4, rows: 5, maxBurst: 4, maxGap: 8, pooledFromPct: 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				runSchedStream(t, tc, seed)
			}
		})
	}
}
