package noc

import "fmt"

// Reliable is the NI-level end-to-end reliability layer: it gives every
// logical transfer a per-(src,dst) sequence number, retransmits after a
// delivery timeout with exponential backoff and a bounded retry budget,
// and suppresses duplicates at the sink so the application sees each
// transfer exactly once even when retries race a slow original.
//
// Delivery acknowledgment is implicit: the simulator observes tail-flit
// consumption directly (a zero-cost ack channel), so a transfer leaves the
// pending set the moment any copy of it is delivered. Recovery is purely
// timer driven — a purged packet is simply a copy that will never arrive,
// and its timeout fires on schedule. Everything is deterministic: retries
// fire in (deadline, send-order) order from a heap, never from map
// iteration.
type Reliable struct {
	net *Network
	cfg ReliableConfig

	nextSeq map[pairKey]uint64
	recv    map[pairKey]*dedupe
	pending map[xferKey]*Transfer
	timers  timerHeap
	order   uint64
	// pktFree recycles injection packets: a delivered copy is dead once
	// onPacket returns (copies lost to fault purges simply fall to the GC).
	pktFree   []*Packet
	onDeliver func(*Transfer, *Packet)
	onFail    func(*Transfer, error)
	stats     ReliableStats
}

// ReliableConfig parameterizes the retry policy.
type ReliableConfig struct {
	// Timeout is the base delivery timeout in cycles; retry k waits
	// Timeout<<k (default 512).
	Timeout int64
	// MaxRetries bounds retransmissions per transfer (default 6). A
	// transfer that exhausts its budget is abandoned and reported through
	// the failure callback.
	MaxRetries int
}

// Transfer is one logical end-to-end message; retransmissions inject fresh
// packets that all point back at the same Transfer.
type Transfer struct {
	Src, Dst int
	Seq      uint64 // per-(src,dst) stream sequence number
	NumFlits int
	Class    int
	Payload  any
	Created  int64 // cycle the transfer was first sent
	Attempts int   // retransmissions so far

	deadline int64
}

// ReliableStats counts the reliability layer's activity.
type ReliableStats struct {
	Sent            int64 // transfers accepted by Send
	Delivered       int64 // transfers delivered (first copy)
	Duplicates      int64 // late copies suppressed at the sink
	Retransmissions int64 // packets re-injected after a timeout
	Recovered       int64 // delivered transfers that needed >=1 retry
	Abandoned       int64 // transfers that exhausted their retry budget
	Unreachable     int64 // transfers refused or abandoned for lack of a route
	LatencySum      int64 // create-to-deliver cycles over delivered transfers
}

// AvgLatency returns the mean end-to-end transfer latency in cycles.
func (s *ReliableStats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Delivered)
}

// Fingerprint hashes the counters for determinism regression tests.
func (s *ReliableStats) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	for _, v := range []int64{
		s.Sent, s.Delivered, s.Duplicates, s.Retransmissions,
		s.Recovered, s.Abandoned, s.Unreachable, s.LatencySum,
	} {
		h = fnvMix(h, uint64(v))
	}
	return h
}

type pairKey struct{ src, dst int }

type xferKey struct {
	src, dst int
	seq      uint64
}

// dedupe tracks delivered sequence numbers per (src,dst) pair as a
// contiguous watermark plus a sparse set for out-of-order arrivals, so
// memory stays O(reordering window) rather than O(history).
type dedupe struct {
	next uint64 // every seq < next has been delivered
	seen map[uint64]bool
}

// mark records a delivery; it reports whether the sequence number was new.
func (d *dedupe) mark(s uint64) bool {
	if s < d.next || d.seen[s] {
		return false
	}
	if s != d.next {
		if d.seen == nil {
			d.seen = make(map[uint64]bool)
		}
		d.seen[s] = true
		return true
	}
	d.next++
	for d.seen[d.next] {
		delete(d.seen, d.next)
		d.next++
	}
	return true
}

type timerItem struct {
	deadline int64
	order    uint64 // send order, breaking deadline ties deterministically
	key      xferKey
}

// timerHeap is a typed min-heap on (deadline, order). It replicates
// container/heap's sift algorithm so timer fire order is unchanged, but a
// push no longer boxes a timerItem into an interface value — the
// retransmission bookkeeping path allocates nothing in steady state.
type timerHeap []timerItem

func (h timerHeap) less(i, j int) bool {
	return h[i].deadline < h[j].deadline ||
		(h[i].deadline == h[j].deadline && h[i].order < h[j].order)
}

func (h *timerHeap) push(it timerItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *timerHeap) pop() timerItem {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	h.down(0, n)
	it := a[n]
	*h = a[:n]
	return it
}

func (h timerHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h timerHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// NewReliable wraps a network with the end-to-end reliability layer. It
// claims the network's packet-delivery callback; register application
// callbacks on the Reliable instead.
func NewReliable(n *Network, cfg ReliableConfig) *Reliable {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 512
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 6
	}
	rel := &Reliable{
		net:     n,
		cfg:     cfg,
		nextSeq: make(map[pairKey]uint64),
		recv:    make(map[pairKey]*dedupe),
		pending: make(map[xferKey]*Transfer),
	}
	n.SetOnPacket(rel.onPacket)
	return rel
}

// Net returns the wrapped network.
func (rel *Reliable) Net() *Network { return rel.net }

// Stats returns the live reliability counters.
func (rel *Reliable) Stats() *ReliableStats { return &rel.stats }

// SetOnDeliver registers the exactly-once application delivery callback.
// The *Packet argument is only valid for the duration of the callback (the
// reliability layer recycles delivered packets).
func (rel *Reliable) SetOnDeliver(fn func(*Transfer, *Packet)) { rel.onDeliver = fn }

// SetOnFail registers the callback for abandoned transfers.
func (rel *Reliable) SetOnFail(fn func(*Transfer, error)) { rel.onFail = fn }

// Send starts a new transfer. It refuses immediately — without consuming a
// sequence number — when the destination is known to be severed (an error
// wrapping routing.ErrUnreachable) or an endpoint terminal is down.
func (rel *Reliable) Send(src, dst, numFlits, class int, payload any) (*Transfer, error) {
	pk := pairKey{src, dst}
	tr := &Transfer{
		Src: src, Dst: dst,
		Seq:      rel.nextSeq[pk],
		NumFlits: numFlits,
		Class:    class,
		Payload:  payload,
		Created:  rel.net.Cycle(),
	}
	if err := rel.inject(tr); err != nil {
		rel.stats.Unreachable++
		return nil, err
	}
	rel.nextSeq[pk] = tr.Seq + 1
	rel.stats.Sent++
	rel.pending[key(tr)] = tr
	rel.arm(tr, rel.net.Cycle()+rel.cfg.Timeout)
	return tr, nil
}

func key(tr *Transfer) xferKey { return xferKey{tr.Src, tr.Dst, tr.Seq} }

func (rel *Reliable) inject(tr *Transfer) error {
	var p *Packet
	if n := len(rel.pktFree); n > 0 {
		p = rel.pktFree[n-1]
		rel.pktFree = rel.pktFree[:n-1]
	} else {
		p = &Packet{}
	}
	*p = Packet{
		Src: tr.Src, Dst: tr.Dst,
		NumFlits: tr.NumFlits,
		Class:    tr.Class,
		Payload:  tr,
	}
	if err := rel.net.TryInject(p); err != nil {
		rel.pktFree = append(rel.pktFree, p)
		return err
	}
	return nil
}

func (rel *Reliable) arm(tr *Transfer, deadline int64) {
	tr.deadline = deadline
	rel.order++
	rel.timers.push(timerItem{deadline: deadline, order: rel.order, key: key(tr)})
}

// onPacket is the network's delivery callback: the implicit ack. The
// delivered packet is recycled after the application callback returns, so
// onDeliver must not retain its *Packet argument.
func (rel *Reliable) onPacket(p *Packet) {
	tr, ok := p.Payload.(*Transfer)
	if !ok {
		return // not a reliable transfer; ignore
	}
	defer func() { rel.pktFree = append(rel.pktFree, p) }()
	delete(rel.pending, key(tr))
	d := rel.recv[pairKey{tr.Src, tr.Dst}]
	if d == nil {
		d = &dedupe{}
		rel.recv[pairKey{tr.Src, tr.Dst}] = d
	}
	if !d.mark(tr.Seq) {
		rel.stats.Duplicates++
		return
	}
	rel.stats.Delivered++
	rel.stats.LatencySum += rel.net.Cycle() - tr.Created
	if tr.Attempts > 0 {
		rel.stats.Recovered++
	}
	if rel.onDeliver != nil {
		rel.onDeliver(tr, p)
	}
}

// Step advances the network one cycle and then fires due retry timers.
// When the network watchdog trips, the error is annotated with the
// reliability layer's view so a genuine routing deadlock is
// distinguishable from a quiet network that is merely waiting out retry
// backoff (the watchdog itself only fires with flits in flight, so pending
// retry timers alone can never trip it).
func (rel *Reliable) Step() error {
	err := rel.net.Step()
	now := rel.net.Cycle()
	for len(rel.timers) > 0 && rel.timers[0].deadline <= now {
		it := rel.timers.pop()
		tr, ok := rel.pending[it.key]
		if !ok || tr.deadline != it.deadline {
			continue // delivered, abandoned, or superseded by a later retry
		}
		rel.retry(tr, now)
	}
	if err != nil && len(rel.pending) > 0 {
		err = fmt.Errorf("%w; reliability layer: %d transfers pending, next retry at cycle %d (retry waits are not deadlocks)",
			err, len(rel.pending), rel.timers[0].deadline)
	}
	return err
}

func (rel *Reliable) retry(tr *Transfer, now int64) {
	if fa := rel.net.faultAware; fa != nil {
		if routeErr := fa.RouteError(tr.Src, tr.Dst); routeErr != nil {
			rel.abandon(tr, routeErr)
			rel.stats.Unreachable++
			return
		}
	}
	if tr.Attempts >= rel.cfg.MaxRetries {
		rel.abandon(tr, fmt.Errorf("noc: transfer %d->%d seq %d abandoned after %d retries",
			tr.Src, tr.Dst, tr.Seq, tr.Attempts))
		rel.stats.Abandoned++
		return
	}
	tr.Attempts++
	if err := rel.inject(tr); err != nil {
		rel.abandon(tr, err)
		rel.stats.Unreachable++
		return
	}
	rel.stats.Retransmissions++
	shift := uint(tr.Attempts)
	if shift > 16 {
		shift = 16
	}
	rel.arm(tr, now+rel.cfg.Timeout<<shift)
}

func (rel *Reliable) abandon(tr *Transfer, cause error) {
	delete(rel.pending, key(tr))
	if rel.onFail != nil {
		rel.onFail(tr, cause)
	}
}

// Pending returns the number of transfers awaiting delivery or retry.
func (rel *Reliable) Pending() int { return len(rel.pending) }

// Quiesced reports whether the network is empty AND no transfer is still
// pending — the condition drain loops must wait for, since a quiet network
// may still owe retransmissions.
func (rel *Reliable) Quiesced() bool {
	return rel.net.Quiesced() && len(rel.pending) == 0
}
