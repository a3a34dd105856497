// Package fault defines deterministic fault-injection plans for the NoC
// simulator: permanent (fail-stop) link and router failures and transient
// link faults that drop or corrupt flits for a bounded window. A Plan
// schedules events at exact cycles, so a seeded run that consumes it is
// exactly reproducible; the simulator applies due events at the start of
// each cycle before any flit moves.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"heteronoc/internal/topology"
)

// Kind classifies a fault event.
type Kind uint8

const (
	// LinkFail permanently fails both directions of a network link. Flits
	// on the wire are lost; the routers on each side refuse to allocate
	// the dead ports from then on.
	LinkFail Kind = iota
	// RouterFail permanently fails a router: every network link touching
	// it dies and its buffered flits are lost. The attached terminal can
	// no longer inject or eject.
	RouterFail
	// Transient opens a window of Duration cycles on one link direction
	// during which every flit crossing it is dropped (or corrupted and
	// then dropped by the checksum check when Corrupt is set). The link
	// itself stays up.
	Transient
)

func (k Kind) String() string {
	switch k {
	case LinkFail:
		return "link-fail"
	case RouterFail:
		return "router-fail"
	case Transient:
		return "transient"
	}
	return "?"
}

// Event is one scheduled fault.
type Event struct {
	// Cycle is when the fault strikes; it takes effect before any flit
	// moves in that cycle.
	Cycle int64
	Kind  Kind
	// Router and Port identify the failing link by its upstream side
	// (LinkFail, Transient) or the failing router (RouterFail, Port
	// ignored).
	Router int
	Port   int
	// Duration is the transient window length in cycles (Transient only).
	Duration int64
	// Corrupt makes a transient fault flip header bits instead of
	// dropping flits outright; the corruption is caught by the flit
	// checksum at the receiving router and the flit is dropped there.
	Corrupt bool
}

func (e Event) String() string {
	switch e.Kind {
	case RouterFail:
		return fmt.Sprintf("@%d router-fail r%d", e.Cycle, e.Router)
	case Transient:
		mode := "drop"
		if e.Corrupt {
			mode = "corrupt"
		}
		return fmt.Sprintf("@%d transient %s r%d.p%d for %d", e.Cycle, mode, e.Router, e.Port, e.Duration)
	}
	return fmt.Sprintf("@%d link-fail r%d.p%d", e.Cycle, e.Router, e.Port)
}

// Plan is an ordered fault schedule. The zero value is an empty plan;
// events may be added in any order and are applied in (cycle, insertion)
// order.
type Plan struct {
	events []Event
	sorted bool
}

// FailLink schedules a permanent link failure.
func (p *Plan) FailLink(cycle int64, router, port int) *Plan {
	return p.add(Event{Cycle: cycle, Kind: LinkFail, Router: router, Port: port})
}

// FailRouter schedules a permanent router failure.
func (p *Plan) FailRouter(cycle int64, router int) *Plan {
	return p.add(Event{Cycle: cycle, Kind: RouterFail, Router: router})
}

// AddTransient schedules a transient drop/corrupt window on one link
// direction.
func (p *Plan) AddTransient(cycle int64, router, port int, duration int64, corrupt bool) *Plan {
	return p.add(Event{Cycle: cycle, Kind: Transient, Router: router, Port: port, Duration: duration, Corrupt: corrupt})
}

func (p *Plan) add(e Event) *Plan {
	if e.Cycle < 1 {
		e.Cycle = 1
	}
	p.events = append(p.events, e)
	p.sorted = false
	return p
}

// Events returns the schedule sorted by cycle (stable for equal cycles).
func (p *Plan) Events() []Event {
	if !p.sorted {
		sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].Cycle < p.events[j].Cycle })
		p.sorted = true
	}
	return p.events
}

// Len returns the number of scheduled events.
func (p *Plan) Len() int { return len(p.events) }

// Validate checks every event against a topology (see Event.Validate).
func (p *Plan) Validate(t topology.Topology) error {
	for _, e := range p.events {
		if err := e.Validate(t); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the event against a topology: its kind must be known,
// link events must name a network port, router events an in-range router.
func (e Event) Validate(t topology.Topology) error {
	if e.Kind > Transient {
		return fmt.Errorf("fault: event %v has unknown kind %d", e, e.Kind)
	}
	if e.Router < 0 || e.Router >= t.NumRouters() {
		return fmt.Errorf("fault: event %v names router %d of %d", e, e.Router, t.NumRouters())
	}
	if e.Kind == RouterFail {
		return nil
	}
	if e.Port < 0 || e.Port >= t.Radix(e.Router) {
		return fmt.Errorf("fault: event %v names port %d of radix %d", e, e.Port, t.Radix(e.Router))
	}
	if _, ok := t.Neighbor(e.Router, e.Port); !ok {
		return fmt.Errorf("fault: event %v targets a non-network port", e)
	}
	if e.Kind == Transient && e.Duration < 1 {
		return fmt.Errorf("fault: event %v has non-positive duration", e)
	}
	return nil
}

// GenConfig parameterizes random plan generation.
type GenConfig struct {
	// Links is the number of distinct permanent link failures.
	Links int
	// Routers is the number of distinct permanent router failures.
	Routers int
	// Transients is the number of transient windows; roughly half are
	// corrupting, the rest drop flits silently.
	Transients int
	// TransientLen is the window length in cycles (default 32).
	TransientLen int64
	// MaxCycle bounds the strike cycles: events land uniformly in
	// [1, MaxCycle] (default 1000).
	MaxCycle int64
	// KeepConnected rejects permanent-failure sets that disconnect the
	// live-router graph, resampling up to a bounded number of times. The
	// final plan may still disconnect if no connected sample is found.
	KeepConnected bool
}

// Generate draws a random plan from a seeded source. Identical seeds and
// configurations produce identical plans.
func Generate(t topology.Topology, seed int64, cfg GenConfig) *Plan {
	rng := rand.New(rand.NewSource(seed))
	if cfg.MaxCycle < 1 {
		cfg.MaxCycle = 1000
	}
	if cfg.TransientLen < 1 {
		cfg.TransientLen = 32
	}
	links := allLinks(t)
	attempts := 1
	if cfg.KeepConnected {
		attempts = 64
	}
	var plan *Plan
	for try := 0; try < attempts; try++ {
		plan = &Plan{}
		ls := topology.NewLinkState(t)
		// Permanent link failures: distinct canonical links.
		perm := rng.Perm(len(links))
		n := cfg.Links
		if n > len(links) {
			n = len(links)
		}
		for i := 0; i < n; i++ {
			l := links[perm[i]]
			plan.FailLink(1+rng.Int63n(cfg.MaxCycle), l[0], l[1])
			ls.FailLink(l[0], l[1])
		}
		// Permanent router failures: distinct routers.
		rperm := rng.Perm(t.NumRouters())
		rn := cfg.Routers
		if rn > t.NumRouters() {
			rn = t.NumRouters()
		}
		for i := 0; i < rn; i++ {
			plan.FailRouter(1+rng.Int63n(cfg.MaxCycle), rperm[i])
			ls.FailRouter(rperm[i])
		}
		// Transient windows may hit any link, including already-sampled
		// ones (a transient on a link that later dies is legal).
		for i := 0; i < cfg.Transients; i++ {
			l := links[rng.Intn(len(links))]
			r, p := l[0], l[1]
			if rng.Intn(2) == 1 {
				// Hit the reverse direction half the time.
				if link, ok := t.Neighbor(r, p); ok {
					r, p = link.Router, link.Port
				}
			}
			plan.AddTransient(1+rng.Int63n(cfg.MaxCycle), r, p, cfg.TransientLen, rng.Intn(2) == 0)
		}
		if !cfg.KeepConnected || ls.Connected() {
			break
		}
	}
	return plan
}

// allLinks enumerates the network links of a topology in canonical
// (router, port) form — the direction with the smaller (router, port)
// tuple — in deterministic order.
func allLinks(t topology.Topology) [][2]int {
	var out [][2]int
	for r := 0; r < t.NumRouters(); r++ {
		for p := 0; p < t.Radix(r); p++ {
			link, ok := t.Neighbor(r, p)
			if !ok {
				continue
			}
			if link.Router > r || (link.Router == r && link.Port > p) {
				out = append(out, [2]int{r, p})
			}
		}
	}
	return out
}
