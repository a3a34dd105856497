package noc

import (
	"strconv"

	"heteronoc/internal/obs"
)

// latBounds are the latency-histogram bucket bounds exposed over /metrics:
// powers of two up to the internal histogram's overflow point, coarse enough
// for a readable exposition while the full 1-cycle-resolution histogram
// stays available through Stats.Percentile.
var latBounds = func() []float64 {
	var b []float64
	for v := 1; v <= latHistMax; v *= 2 {
		b = append(b, float64(v))
	}
	return b
}()

// RegisterMetrics registers the network's counters, gauges and the packet
// latency histogram in reg. All instruments are pull-based closures over
// the live simulator state: registration adds nothing to the hot path, and
// values are read at exposition time (safe only while the simulator is not
// concurrently stepping — serve cached expositions via obs.Snapshot for
// live introspection of a running simulation).
//
// labels are attached to every series, so several networks (e.g. a sweep's
// design points) can share one registry disambiguated by a label.
func (n *Network) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	s := &n.stats
	ctr := func(name, help string, v *int64) {
		reg.RegisterCounter(name, help, labels, func() float64 { return float64(*v) })
	}
	ctr("noc_cycles_total", "simulated cycles in the measurement window", &s.Cycles)
	ctr("noc_packets_injected_total", "packets accepted into NI queues", &s.PacketsInjected)
	ctr("noc_packets_received_total", "packets fully delivered", &s.PacketsReceived)
	ctr("noc_flits_injected_total", "flits launched from NI queues", &s.FlitsInjected)
	ctr("noc_flits_received_total", "flits consumed at destination terminals", &s.FlitsReceived)
	ctr("noc_escapes_total", "packets diverted to the escape network", &s.Escapes)
	ctr("noc_fault_flits_lost_total", "flits destroyed by link/router kills", &s.FlitsLost)
	ctr("noc_fault_flits_dropped_total", "flits dropped by transient fault windows", &s.FlitsDroppedFault)
	ctr("noc_fault_flits_corrupted_total", "flits dropped by the header checksum", &s.FlitsCorrupted)
	ctr("noc_fault_packets_lost_total", "packets purged after losing a flit", &s.PacketsLost)
	ctr("noc_fault_packets_unroutable_total", "packets dropped for lack of a live route", &s.PacketsUnroutable)

	reg.RegisterGauge("noc_flits_in_network", "flits currently inside the network", labels,
		func() float64 { return float64(n.flitsInNetwork) })
	reg.RegisterGauge("noc_packets_queued", "packets waiting in NI source queues", labels,
		func() float64 { return float64(n.queuedPackets) })
	reg.RegisterGauge("noc_avg_latency_cycles", "mean packet latency over the measurement window", labels,
		s.AvgLatency)
	reg.RegisterGauge("noc_combine_rate", "fraction of busy wide-link cycles carrying two flits", labels,
		n.CombineRate)
	if n.faultsArmed {
		reg.RegisterGauge("noc_fault_events_applied", "fault-plan events already struck", labels,
			func() float64 { return float64(n.faultNext) })
		reg.RegisterGauge("noc_fault_events_planned", "total events in the fault plan", labels,
			func() float64 { return float64(len(n.faultEvents)) })
	}

	reg.RegisterHistogram("noc_packet_latency_cycles", "packet latency distribution", labels,
		latBounds, func() obs.HistSnapshot {
			snap := obs.HistSnapshot{
				Buckets: make([]uint64, len(latBounds)),
				Sum:     float64(s.TotalLatency),
				Count:   uint64(s.PacketsReceived),
			}
			bi := 0
			for lat, cnt := range s.latHist {
				if cnt == 0 {
					continue
				}
				if lat >= latHistMax {
					// The internal overflow bucket counts latency >= max.
					snap.Overflow += uint64(cnt)
					continue
				}
				// lat ascends, so the bucket cursor only moves forward.
				for float64(lat) > latBounds[bi] {
					bi++
				}
				snap.Buckets[bi] += uint64(cnt)
			}
			return snap
		})

	for r := range n.routers {
		rt := &n.routers[r]
		rl := append(append([]obs.Label(nil), labels...), obs.L("router", strconv.Itoa(r)))
		reg.RegisterGauge("noc_router_link_utilization", "mean busy fraction of live output links", rl,
			func() float64 {
				cyc := s.Cycles
				live := liveLinkCount(rt)
				if cyc == 0 || live == 0 {
					return 0
				}
				return float64(liveBusySum(rt)) / float64(cyc) / float64(live)
			})
		reg.RegisterGauge("noc_router_buffer_occupancy", "mean fraction of buffer slots occupied", rl,
			func() float64 {
				if s.Cycles == 0 || rt.bufSlots == 0 {
					return 0
				}
				return float64(rt.bufOccSum) / float64(s.Cycles) / float64(rt.bufSlots)
			})
		reg.RegisterCounter("noc_router_buf_reads_total", "buffer read operations", rl,
			func() float64 { return float64(rt.bufReads) })
		reg.RegisterCounter("noc_router_buf_writes_total", "buffer write operations", rl,
			func() float64 { return float64(rt.bufWrites) })
		reg.RegisterCounter("noc_router_xbar_flits_total", "flits through the crossbar", rl,
			func() float64 { return float64(rt.xbarFlits) })
		reg.RegisterCounter("noc_router_arb_ops_total", "arbitration operations", rl,
			func() float64 { return float64(rt.arbOps) })
	}
}
