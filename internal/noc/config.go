package noc

import (
	"fmt"

	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// RouterConfig sizes one router.
type RouterConfig struct {
	// VCs is the number of virtual channels per port.
	VCs int
	// BufDepth is the buffer depth per VC in flits.
	BufDepth int
	// Wide marks a big router: its crossbar is double width, so links that
	// touch it carry two flits per cycle (the paper's 256-bit links around
	// 128-bit flits).
	Wide bool
	// SplitDatapath models the HeteroNoC crossbar modifications of Section
	// 3 (Figures 4-6): the input DEMUX and switch MUX are split into two
	// separable halves (DSET1/DSET2) with dual parallel output arbiters, so
	// an input port can source two flits per cycle — toward one wide output
	// (flit combining) or two different outputs. The homogeneous baseline
	// router moves at most one flit per input port per cycle.
	SplitDatapath bool
	// ImprovedSA gives the router the HeteroNoC switch-arbitration upgrade
	// without the split datapath (buffer-only +B designs): when an input
	// port's first nominated VC loses its output, another VC of the port
	// may bid, instead of the nomination being lost for the cycle as in
	// the classic baseline allocator. Implied by SplitDatapath.
	ImprovedSA bool
}

// Config describes a complete network.
type Config struct {
	Topo    topology.Topology
	Routing routing.Algorithm
	// Routers holds one entry per router. A single-element slice is
	// broadcast to all routers.
	Routers []RouterConfig
	// FlitWidthBits is the flit (and buffer) width. The kernel moves whole
	// flits and only checks that it is positive; callers size packets in
	// flits (core.Layout.DataPacketFlits).
	FlitWidthBits int
	// WatchdogCycles aborts the simulation when no flit moves for this many
	// cycles while packets are in flight (deadlock detection). Zero
	// disables the watchdog.
	WatchdogCycles int
}

// normalize validates the configuration and expands broadcast fields.
func (c *Config) normalize() error {
	if c.Topo == nil {
		return fmt.Errorf("noc: config missing topology")
	}
	if c.Routing == nil {
		return fmt.Errorf("noc: config missing routing algorithm")
	}
	n := c.Topo.NumRouters()
	switch len(c.Routers) {
	case n:
	case 1:
		rc := c.Routers[0]
		c.Routers = make([]RouterConfig, n)
		for i := range c.Routers {
			c.Routers[i] = rc
		}
	default:
		return fmt.Errorf("noc: config has %d router entries for %d routers", len(c.Routers), n)
	}
	for i, rc := range c.Routers {
		if rc.VCs < 1 || rc.BufDepth < 1 {
			return fmt.Errorf("noc: router %d has invalid VCs=%d depth=%d", i, rc.VCs, rc.BufDepth)
		}
	}
	if c.FlitWidthBits <= 0 {
		return fmt.Errorf("noc: flit width must be positive")
	}
	return topology.Validate(c.Topo)
}

// LinkSlots returns the bandwidth in flits per cycle of the link leaving
// router r through port p: 2 when either endpoint router is wide, else 1.
// Terminal ports follow the width of their router.
func (c *Config) LinkSlots(r, p int) int {
	wide := c.Routers[r].Wide
	if link, ok := c.Topo.Neighbor(r, p); ok {
		wide = wide || c.Routers[link.Router].Wide
	}
	if wide {
		return 2
	}
	return 1
}
