package noc

import (
	"fmt"

	"heteronoc/internal/obs"
)

// Sampler captures a cycle-windowed time series from a running network:
// each sample is the state (in-flight flits, queued packets) and windowed
// rates (flit injection/delivery, wide-link combining, per-router occupancy
// and utilization in columns buf_occ_r<i> and link_util_r<i>) since the
// previous sample. Wire its Tick into the network's per-cycle hook (Attach
// does this), then export Series as JSON or CSV for heat-map animation.
//
// Window deltas are computed against the cumulative simulator counters and
// survive ResetStats: a counter that moved backwards is treated as freshly
// reset, so the window contribution restarts from zero instead of going
// negative.
type Sampler struct {
	n      *Network
	stride int64
	series *obs.TimeSeries

	lastCycle    int64
	prevInjected int64
	prevReceived int64
	prevWideBusy int64
	prevCombined int64
	prevBufOcc   []int64
	prevBusy     []int64
	row          []float64
}

// NewSampler builds a sampler for n that captures a sample on every cycle
// divisible by stride (default 1000 when stride <= 0). Call Attach (or
// wire Tick into SetOnCycle yourself, composing with other per-cycle
// work).
func NewSampler(n *Network, stride int64) *Sampler {
	if stride <= 0 {
		stride = 1000
	}
	s := &Sampler{
		n: n, stride: stride, lastCycle: n.cycle,
		prevBufOcc: make([]int64, len(n.routers)),
		prevBusy:   make([]int64, len(n.routers)),
	}
	cols := []string{"inflight_flits", "queued_packets", "flits_injected", "flits_received", "combine_rate"}
	for r := range n.routers {
		cols = append(cols, fmt.Sprintf("buf_occ_r%d", r))
	}
	for r := range n.routers {
		cols = append(cols, fmt.Sprintf("link_util_r%d", r))
	}
	s.series = obs.NewTimeSeries(cols...)
	s.row = make([]float64, len(cols))
	s.resync()
	return s
}

// Attach installs Tick as the network's per-cycle hook.
func (s *Sampler) Attach() { s.n.SetOnCycle(s.Tick) }

// Series returns the captured time series (live; keeps growing while the
// sampler is attached).
func (s *Sampler) Series() *obs.TimeSeries { return s.series }

// delta returns cur-prev with counter-reset handling: a backwards move
// means the counter was zeroed (ResetStats), so the window restarts at cur.
func delta(cur, prev int64) int64 {
	d := cur - prev
	if d < 0 {
		return cur
	}
	return d
}

// resync re-reads all baselines without emitting a sample.
func (s *Sampler) resync() {
	n := s.n
	s.prevInjected = n.stats.FlitsInjected
	s.prevReceived = n.stats.FlitsReceived
	s.prevWideBusy, s.prevCombined = n.wideLinkCounters()
	for r := range n.routers {
		rt := &n.routers[r]
		s.prevBufOcc[r] = rt.bufOccSum
		s.prevBusy[r] = liveBusySum(rt)
	}
}

// wideLinkCounters sums busy and combined cycle counts over wide links.
func (n *Network) wideLinkCounters() (wideBusy, combined int64) {
	for r := range n.routers {
		for _, op := range n.routers[r].out {
			if op.dead || op.slots < 2 {
				continue
			}
			wideBusy += op.busyCycles
			combined += op.combineCycles
		}
	}
	return wideBusy, combined
}

// liveBusySum sums busyCycles over a router's live network links.
func liveBusySum(rt *router) int64 {
	var busy int64
	for _, op := range rt.out {
		if op.dead || op.isTerm {
			continue
		}
		busy += op.busyCycles
	}
	return busy
}

func liveLinkCount(rt *router) int {
	live := 0
	for _, op := range rt.out {
		if op.dead || op.isTerm {
			continue
		}
		live++
	}
	return live
}

// Tick is the per-cycle hook; it captures a sample on stride boundaries.
// A tick at or before the last sampled cycle (a re-attached or restored
// hook replaying a boundary) is ignored, so each window edge is attributed
// exactly once.
func (s *Sampler) Tick(cycle int64) {
	if cycle%s.stride != 0 || cycle <= s.lastCycle {
		return
	}
	n := s.n
	window := cycle - s.lastCycle
	if window <= 0 {
		window = s.stride
	}
	s.lastCycle = cycle

	row := s.row
	row[0] = float64(n.flitsInNetwork)
	row[1] = float64(n.queuedPackets)
	row[2] = float64(delta(n.stats.FlitsInjected, s.prevInjected))
	row[3] = float64(delta(n.stats.FlitsReceived, s.prevReceived))
	s.prevInjected = n.stats.FlitsInjected
	s.prevReceived = n.stats.FlitsReceived
	wideBusy, combined := n.wideLinkCounters()
	dBusy, dComb := delta(wideBusy, s.prevWideBusy), delta(combined, s.prevCombined)
	s.prevWideBusy, s.prevCombined = wideBusy, combined
	row[4] = 0
	if dBusy > 0 {
		row[4] = float64(dComb) / float64(dBusy)
	}
	nr := len(n.routers)
	for r := range n.routers {
		rt := &n.routers[r]
		dOcc := delta(rt.bufOccSum, s.prevBufOcc[r])
		s.prevBufOcc[r] = rt.bufOccSum
		occ := 0.0
		if rt.bufSlots > 0 {
			occ = float64(dOcc) / float64(window) / float64(rt.bufSlots)
		}
		row[5+r] = occ
		busy := liveBusySum(rt)
		dB := delta(busy, s.prevBusy[r])
		s.prevBusy[r] = busy
		util := 0.0
		if live := liveLinkCount(rt); live > 0 {
			util = float64(dB) / float64(window) / float64(live)
		}
		row[5+nr+r] = util
	}
	s.series.Append(cycle, row)
}
