// Package mem models the memory controllers and DRAM of the CMP system:
// each controller owns a request queue and a set of parallel banks with a
// fixed access latency (400 core cycles, Table 2), and tracks the
// queuing/service statistics used by the memory-controller placement study
// (Section 6).
package mem

// Request is one DRAM access.
type Request struct {
	Line    uint64
	Home    int  // tile to answer
	Write   bool // write-backs produce no response
	Arrived int64
	// done is the completion time once scheduled.
	done int64
	// row is the DRAM row, fixed at Enqueue along with the bank queue the
	// request waits in.
	row uint64
	// pooled marks a controller-owned request (EnqueueLine); it returns to
	// the free list one Tick after completion. Caller-owned requests
	// (Enqueue) are never recycled.
	pooled bool
}

// Controller is one memory controller with an FR-FCFS scheduler over
// open-row banks: a request to a bank whose row buffer already holds the
// right row is serviced faster (RowHitLatency) and preferred over older
// row-miss requests to the same bank — the standard first-ready
// first-come-first-served policy.
type Controller struct {
	// Terminal is the tile the controller is attached to.
	Terminal int
	// Latency is the row-miss DRAM access time in core cycles (Table 2's
	// 400-cycle access).
	Latency int64
	// RowHitLatency is the access time when the row buffer hits.
	RowHitLatency int64
	// Banks is the number of requests serviced in parallel.
	Banks int
	// RowLines is the number of consecutive cache lines per DRAM row.
	RowLines uint64

	banks    []bank
	queued   int // requests waiting across all bank queues
	inFlight reqHeap

	// out is the reused Tick result slice; its previous contents are
	// recycled at the next Tick (the caller consumes results synchronously
	// before stepping the controller again). free is the Request pool.
	out  []*Request
	free []*Request

	// Statistics.
	Reads, Writes    int64
	RowHits          int64
	TotalQueueDelay  int64
	TotalServiceTime int64
	Completed        int64
}

// bank is one DRAM bank: its row buffer, the cycle it frees up, and the
// FIFO of requests waiting for it in arrival order.
type bank struct {
	free     int64
	openRow  uint64
	rowValid bool
	queue    []*Request
}

// NewController builds a controller attached to a terminal.
func NewController(terminal int) *Controller {
	c := &Controller{Terminal: terminal, Latency: 400, RowHitLatency: 200, Banks: 8, RowLines: 64}
	c.banks = make([]bank, c.Banks)
	return c
}

// EnqueueLine accepts an access without the caller allocating a Request:
// the controller draws one from its pool and recycles it after completion.
func (c *Controller) EnqueueLine(line uint64, home int, write bool, now int64) {
	var r *Request
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		r = &Request{}
	}
	*r = Request{Line: line, Home: home, Write: write, pooled: true}
	c.Enqueue(r, now)
}

// Enqueue accepts a request at time now. The line statically maps to a
// bank and a DRAM row; the request joins that bank's queue.
func (c *Controller) Enqueue(r *Request, now int64) {
	r.Arrived = now
	if r.Write {
		c.Writes++
	} else {
		c.Reads++
	}
	rowIdx := r.Line / c.RowLines
	r.row = rowIdx / uint64(c.Banks)
	b := &c.banks[rowIdx%uint64(c.Banks)]
	b.queue = append(b.queue, r)
	c.queued++
	c.schedule(now)
}

// schedule assigns queued requests to free banks under FR-FCFS: per free
// bank, the oldest row-buffer-hitting request wins; if none hits, the
// oldest request for that bank is served and re-opens the row. Banks are
// visited in ascending order, one grant per bank per pass, and passes
// repeat until none grants (with a zero latency a bank frees up again
// within the same cycle).
func (c *Controller) schedule(now int64) {
	for c.queued > 0 {
		moved := false
		for i := range c.banks {
			b := &c.banks[i]
			if len(b.queue) == 0 || b.free > now {
				continue
			}
			// First ready: oldest row hit, else the oldest request.
			pick, lat := 0, c.Latency
			if b.rowValid {
				for j, r := range b.queue {
					if r.row == b.openRow {
						pick, lat = j, c.RowHitLatency
						c.RowHits++
						break // FIFO: the first hit is the oldest hit
					}
				}
			}
			r := b.queue[pick]
			copy(b.queue[pick:], b.queue[pick+1:])
			b.queue[len(b.queue)-1] = nil
			b.queue = b.queue[:len(b.queue)-1]
			c.queued--
			b.openRow, b.rowValid = r.row, true
			r.done = now + lat
			b.free = r.done
			c.TotalQueueDelay += now - r.Arrived
			c.inFlight.push(r)
			moved = true
		}
		if !moved {
			return
		}
	}
}

// Tick returns the requests that completed by cycle now. Write-backs
// complete silently (they are popped but carry Write=true so the caller
// can skip the response). The returned slice is reused on the next Tick;
// consume it before stepping the controller again.
func (c *Controller) Tick(now int64) []*Request {
	for _, r := range c.out {
		if r.pooled {
			c.free = append(c.free, r)
		}
	}
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

// QueueLen returns the number of requests waiting for a bank.
func (c *Controller) QueueLen() int { return c.queued }

// Busy reports whether any request is queued or in flight.
func (c *Controller) Busy() bool { return c.queued > 0 || len(c.inFlight) > 0 }

// AvgServiceTime returns the mean arrival-to-done time in cycles.
func (c *Controller) AvgServiceTime() float64 {
	if c.Completed == 0 {
		return 0
	}
	return float64(c.TotalServiceTime) / float64(c.Completed)
}

// reqHeap is a typed min-heap on Request.done, replicating container/heap's
// sift algorithm so completion ties keep popping in the established order
// without boxing a *Request per push.
type reqHeap []*Request

func (h *reqHeap) push(r *Request) {
	*h = append(*h, r)
	h.up(len(*h) - 1)
}

func (h *reqHeap) pop() *Request {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	h.down(0, n)
	r := a[n]
	a[n] = nil
	*h = a[:n]
	return r
}

func (h reqHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || h[i].done <= h[j].done {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h reqHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].done < h[j1].done {
			j = j2
		}
		if h[i].done <= h[j].done {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Placement computes the memory-controller tile sets studied in Section 6
// on a W x H mesh (Abts et al. layouts).
type Placement string

const (
	// PlacementCorners is the Table 2 baseline: 4 controllers at the mesh
	// corners.
	PlacementCorners Placement = "corners"
	// PlacementDiamond distributes 16 controllers in the diamond pattern.
	PlacementDiamond Placement = "diamond"
	// PlacementDiagonal puts 16 controllers on the two diagonals
	// (co-located with the HeteroNoC big routers).
	PlacementDiagonal Placement = "diagonal"
)

// Tiles returns the tile IDs hosting controllers for a placement on a
// W x H router grid (row-major IDs).
func Tiles(p Placement, w, h int) []int {
	at := func(x, y int) int { return y*w + x }
	switch p {
	case PlacementCorners:
		return []int{at(0, 0), at(w-1, 0), at(0, h-1), at(w-1, h-1)}
	case PlacementDiagonal:
		var out []int
		seen := map[int]bool{}
		for i := 0; i < w && i < h; i++ {
			for _, t := range []int{at(i, i), at(w-1-i, i)} {
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
		return out
	case PlacementDiamond:
		// A diamond ring of controllers: all tiles whose Manhattan distance
		// from the mesh center falls in the band (r-1, r], with r half the
		// short edge so the ring stays inscribed on non-square meshes
		// (Abts et al.'s X pattern rotated 45 degrees). For 8x8 r=4 and
		// this yields 16 tiles.
		var out []int
		seen := map[int]bool{}
		cx, cy := float64(w-1)/2, float64(h-1)/2
		r := float64(min(w, h)) / 2
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				d := abs64(float64(x)-cx) + abs64(float64(y)-cy)
				if d > r-1 && d <= r && !seen[at(x, y)] {
					seen[at(x, y)] = true
					out = append(out, at(x, y))
				}
			}
		}
		return out
	}
	return nil
}

func abs64(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
