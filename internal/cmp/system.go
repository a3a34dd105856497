package cmp

import (
	"context"
	"fmt"

	"heteronoc/internal/cmp/cache"
	"heteronoc/internal/cmp/coherence"
	"heteronoc/internal/cmp/mem"
	"heteronoc/internal/core"
	"heteronoc/internal/noc"
	"heteronoc/internal/reqstat"
	"heteronoc/internal/routing"
	"heteronoc/internal/stats"
	"heteronoc/internal/suspend"
	"heteronoc/internal/trace"
)

// Config assembles a CMP system.
type Config struct {
	// Layout selects the network (baseline or a HeteroNoC design).
	Layout core.Layout
	// Routing optionally overrides the layout's default algorithm
	// (table-based routing in the asymmetric-CMP study).
	Routing routing.Algorithm
	// MCTiles hosts one memory controller per listed tile (default: the
	// Table 2 corner placement).
	MCTiles []int
	// Cores configures each core; a single entry broadcasts (default:
	// Table 2 out-of-order cores).
	Cores []CoreConfig
	// Traces supplies each core's instruction stream.
	Traces []trace.Reader
	// LineBytes is the cache line size (Table 2: 128B).
	LineBytes int
	// CoreFreqGHz is the core clock (2.2); the network runs at the
	// layout's frequency, stepped fractionally against the core clock.
	CoreFreqGHz float64
	// Prefetch enables the L1 next-line stream prefetcher on every core.
	Prefetch bool
}

// Tile is one node: core, private L1, and the local L2 bank + directory.
type Tile struct {
	ID   int
	Core *Core
	L1   *coherence.L1
	Home *coherence.Home
}

// System is a running CMP simulation.
type System struct {
	cfg   Config
	Net   *noc.Network
	Tiles []*Tile
	MCs   map[int]*mem.Controller
	// mcOrder fixes the controller visit order (map iteration order is
	// randomized per run; ticking controllers in it would make same-cycle
	// memory responses inject in a run-dependent order).
	mcOrder []int

	now      int64
	netAccum float64
	netRatio float64

	delayQ evtHeap

	// Per-(src,dst) sequence state: the NI reorder buffer delivers each
	// pair's messages in send order even though the wormhole network (and
	// the local/remote path split) can reorder them in flight. The MESI
	// protocol relies on this ordering (see coherence.Msg.Seq).
	seqOut map[pairKey]int64
	seqIn  map[pairKey]int64
	parked map[pairKey]map[int64]coherence.Msg

	// MCReqLatency samples the one-way core-to-controller network latency
	// of memory requests (Figure 13(b)).
	MCReqLatency stats.Summary

	// warmup switches the transport to instantaneous functional delivery
	// (cache warmup before timing measurement). warmQ drains via warmHead
	// so the backing array is reused instead of re-sliced away.
	warmup   bool
	warmQ    []coherence.Msg
	warmHead int

	// msgPool recycles packet envelopes between flush and receive.
	msgPool []*netMsg

	// warmedEntries records how many trace entries per core Warmup (or a
	// restored warm checkpoint) consumed; WarmSnapshot records it.
	warmedEntries int

	// warmErr is the error that stopped a warmup or a warm restore part
	// way. Such a system is unusable: its readers are mid-stream and its
	// caches partly warm.
	warmErr error
}

type evt struct {
	at int64
	m  coherence.Msg
	// local marks a message that already took its tile-internal hop and
	// is ready for direct dispatch.
	local bool
}

// evtHeap is a typed min-heap on evt.at. It reproduces container/heap's
// sift algorithm exactly (append+up on push, swap-to-end+down on pop) so
// same-cycle ties pop in the order the interface-based heap established —
// but without boxing an evt into an interface value on every Send.
type evtHeap []evt

func (h *evtHeap) push(e evt) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *evtHeap) pop() evt {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	h.down(0, n)
	e := a[n]
	*h = a[:n]
	return e
}

func (h evtHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || h[i].at <= h[j].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h evtHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].at < h[j1].at {
			j = j2
		}
		if h[i].at <= h[j].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// netMsg is a pooled packet envelope: the noc.Packet and its payload
// message live in one reusable allocation. flush takes one from the pool
// when injecting; receive returns it once the message has been copied out.
type netMsg struct {
	pkt noc.Packet
	msg coherence.Msg
}

func (s *System) getNetMsg() *netMsg {
	if n := len(s.msgPool); n > 0 {
		nm := s.msgPool[n-1]
		s.msgPool = s.msgPool[:n-1]
		return nm
	}
	return &netMsg{}
}

func (s *System) putNetMsg(nm *netMsg) {
	s.msgPool = append(s.msgPool, nm)
}

// New builds a CMP system.
func New(cfg Config) (*System, error) {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 128
	}
	if cfg.CoreFreqGHz == 0 {
		cfg.CoreFreqGHz = 2.20
	}
	n := cfg.Layout.Mesh.NumTerminals()
	if cfg.MCTiles == nil {
		w, h := cfg.Layout.Mesh.Dims()
		cfg.MCTiles = mem.Tiles(mem.PlacementCorners, w, h)
	}
	switch len(cfg.Cores) {
	case n:
	case 1:
		cc := cfg.Cores[0]
		cfg.Cores = make([]CoreConfig, n)
		for i := range cfg.Cores {
			cfg.Cores[i] = cc
		}
	case 0:
		cfg.Cores = make([]CoreConfig, n)
		for i := range cfg.Cores {
			cfg.Cores[i] = LargeCore()
		}
	default:
		return nil, fmt.Errorf("cmp: %d core configs for %d tiles", len(cfg.Cores), n)
	}
	if len(cfg.Traces) != n {
		return nil, fmt.Errorf("cmp: %d traces for %d tiles", len(cfg.Traces), n)
	}

	s := &System{
		cfg:    cfg,
		MCs:    make(map[int]*mem.Controller),
		seqOut: make(map[pairKey]int64),
		seqIn:  make(map[pairKey]int64),
		parked: make(map[pairKey]map[int64]coherence.Msg),
	}
	alg := cfg.Routing
	var net *noc.Network
	var err error
	if alg != nil {
		net, err = cfg.Layout.NetworkWith(alg)
	} else {
		net, err = cfg.Layout.Network()
	}
	if err != nil {
		return nil, err
	}
	s.Net = net
	s.netRatio = cfg.Layout.FreqGHz() / cfg.CoreFreqGHz
	net.SetOnPacket(s.receive)

	homeFor := func(line uint64) int { return int(line % uint64(n)) }
	for _, t := range cfg.MCTiles {
		if s.MCs[t] == nil {
			s.MCs[t] = mem.NewController(t)
			s.mcOrder = append(s.mcOrder, t)
		}
	}
	mcTiles := cfg.MCTiles
	mcFor := func(line uint64) int {
		// Low-order address bits above the cache line select the
		// controller (Section 6).
		return mcTiles[int(line/uint64(n))%len(mcTiles)]
	}

	s.Tiles = make([]*Tile, n)
	for i := 0; i < n; i++ {
		l1c := cache.New[bool](cache.Config{SizeBytes: 32 * 1024, Ways: 4, LineBytes: cfg.LineBytes})
		l2c := cache.New[coherence.DirEntry](cache.Config{
			SizeBytes: 1 << 20, Ways: 16, LineBytes: cfg.LineBytes,
			IndexShiftBits: bankShift(n),
		})
		tile := &Tile{ID: i}
		tile.L1 = coherence.NewL1(i, l1c, s, homeFor)
		tile.L1.PrefetchNextLine = cfg.Prefetch
		tile.Home = coherence.NewHome(i, l2c, s, mcFor)
		lineOf := func(addr uint64) uint64 { return addr / uint64(cfg.LineBytes) }
		tile.Core = NewCore(i, cfg.Cores[i], cfg.Traces[i], tile.L1, &s.now, lineOf)
		s.Tiles[i] = tile
	}
	return s, nil
}

// bankShift returns log2(n) rounded up: the low line-address bits consumed
// by bank selection, skipped when indexing within a bank.
func bankShift(n int) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return s
}

// Now returns the current core cycle.
func (s *System) Now() int64 { return s.now }

// LineBytes returns the configured cache line size (after defaulting).
func (s *System) LineBytes() int { return s.cfg.LineBytes }

// PrefetchEnabled reports whether the L1 next-line prefetcher is on.
func (s *System) PrefetchEnabled() bool { return s.cfg.Prefetch }

type pairKey struct{ src, dst int }

// Send implements coherence.Transport: messages queue for their processing
// delay, then either deliver locally (same tile) or enter the network.
func (s *System) Send(m coherence.Msg, after int64) {
	m.SentAt = s.now
	if s.warmup {
		s.warmQ = append(s.warmQ, m)
		return
	}
	k := pairKey{m.Src, m.Dst}
	m.Seq = s.seqOut[k]
	s.seqOut[k]++
	s.delayQ.push(evt{at: s.now + after, m: m})
}

// dataFlits returns the flit count for a message.
func (s *System) dataFlits(m coherence.Msg) int {
	if m.Type.IsData() {
		return s.cfg.Layout.DataPacketFlits()
	}
	return 1
}

// localHopDelay approximates the tile-internal path (NI + bank port) taken
// when a message's source and destination share a tile.
const localHopDelay = 2

// flush moves matured delayed messages onward: same-tile traffic takes a
// short local hop and dispatches directly, everything else enters the
// network. An injection refusal (dead terminal or severed destination under
// a fault plan) is surfaced rather than panicking: the coherence protocol
// has no drop semantics, so losing a message silently would wedge it.
func (s *System) flush() error {
	for len(s.delayQ) > 0 && s.delayQ[0].at <= s.now {
		e := s.delayQ.pop()
		switch {
		case e.local:
			s.deliverOrdered(e.m)
		case e.m.Src == e.m.Dst:
			s.delayQ.push(evt{at: s.now + localHopDelay, m: e.m, local: true})
		default:
			nm := s.getNetMsg()
			nm.msg = e.m
			nm.pkt = noc.Packet{
				Src:      e.m.Src,
				Dst:      e.m.Dst,
				NumFlits: s.dataFlits(e.m),
				Class:    int(e.m.Type),
				Payload:  nm,
			}
			if err := s.Net.TryInject(&nm.pkt); err != nil {
				s.putNetMsg(nm)
				return fmt.Errorf("cmp: injecting %v %d->%d: %w", e.m.Type, e.m.Src, e.m.Dst, err)
			}
		}
	}
	return nil
}

// receive handles a packet delivered by the network. The envelope is
// recycled immediately: once the message is copied out, nothing else
// references the packet (CMP runs never arm fault plans, so the network
// holds no dangling duplicates).
func (s *System) receive(p *noc.Packet) {
	nm := p.Payload.(*netMsg)
	m := nm.msg
	s.putNetMsg(nm)
	s.deliverOrdered(m)
}

// deliverOrdered is the NI reorder buffer: it releases each (src,dst)
// pair's messages in sequence order, parking early arrivals.
func (s *System) deliverOrdered(m coherence.Msg) {
	k := pairKey{m.Src, m.Dst}
	if m.Seq != s.seqIn[k] {
		pk := s.parked[k]
		if pk == nil {
			pk = make(map[int64]coherence.Msg)
			s.parked[k] = pk
		}
		pk[m.Seq] = m
		return
	}
	s.dispatch(m)
	s.seqIn[k]++
	for {
		pk := s.parked[k]
		next, ok := pk[s.seqIn[k]]
		if !ok {
			break
		}
		delete(pk, s.seqIn[k])
		s.dispatch(next)
		s.seqIn[k]++
	}
}

// dispatch routes a protocol message to its handler.
func (s *System) dispatch(m coherence.Msg) {
	switch m.Type {
	case coherence.MemRead, coherence.MemWrite:
		mc := s.MCs[m.Dst]
		if mc == nil {
			panic(fmt.Sprintf("cmp: message %v to tile %d which has no memory controller", m.Type, m.Dst))
		}
		s.MCReqLatency.Add(float64(s.now - m.SentAt))
		mc.EnqueueLine(m.Line, m.Src, m.Type == coherence.MemWrite, s.now)
	case coherence.GetS, coherence.GetM, coherence.PutM, coherence.InvAck,
		coherence.FwdAckData, coherence.FwdNoData, coherence.MemData:
		s.Tiles[m.Dst].Home.Handle(m)
	default:
		s.Tiles[m.Dst].L1.Handle(m)
	}
}

// Warmup pipeline sizing: the reader stage fills buffers of warmBatch
// entries per core, and warmBuffers buffers circulate between it and the
// protocol stage.
const (
	warmBatch   = 64
	warmBuffers = 3
)

// Warmup functionally streams entriesPerCore trace records per core
// through the cache hierarchy with an instantaneous transport, populating
// L1s, L2 banks and the directory before timing measurement begins — the
// standard answer to the multi-million-cycle cold-start a 400-cycle DRAM
// would otherwise impose. Trace generators keep their state, so timing
// simulation continues the same streams.
//
// The trace readers run on a second goroutine, at most warmBuffers
// batches ahead of the protocol (see readWarm); the result is
// bit-identical to reading and replaying each entry in turn. ctx is
// checked before each batch. A
// cancelled warmup returns ctx.Err() and leaves the system unusable, so
// Warmup, WarmSnapshot, RestoreWarmSnapshot and RunCtx refuse it from
// then on.
func (s *System) Warmup(ctx context.Context, entriesPerCore int) error {
	if s.warmErr != nil {
		return s.unusable()
	}
	if entriesPerCore > 0 {
		if err := s.warmPipelined(ctx, entriesPerCore); err != nil {
			s.warmErr = err
			return err
		}
	}
	s.warmedEntries += entriesPerCore
	s.ResetStats()
	return nil
}

// unusable is the error every entry point returns after a failed warmup.
func (s *System) unusable() error {
	return fmt.Errorf("cmp: system unusable after its warmup or warm restore stopped part way: %w", s.warmErr)
}

// warmPipelined runs the warmup's two stages: readWarm on its own
// goroutine, and the message-driven protocol on this one. The reader
// stage has finished by the time it returns, and a panic on it is
// raised again here, where the caller's recover can see it.
func (s *System) warmPipelined(ctx context.Context, entriesPerCore int) error {
	tiles := len(s.Tiles)
	free := make(chan []trace.Entry, warmBuffers)
	full := make(chan []trace.Entry, warmBuffers)
	for range warmBuffers {
		free <- make([]trace.Entry, min(warmBatch, entriesPerCore)*tiles)
	}
	stop := make(chan struct{})
	var readerPanic any
	go func() {
		defer close(full)
		defer func() { readerPanic = recover() }()
		readWarm(s.cfg.Traces, entriesPerCore, free, full, stop)
	}()
	defer func() {
		close(stop)
		for range full {
		}
		if readerPanic != nil {
			panic(readerPanic)
		}
	}()

	s.warmup = true
	defer func() { s.warmup = false }()
	lineBytes := uint64(s.cfg.LineBytes)
	for buf := range full {
		if err := ctx.Err(); err != nil {
			return err
		}
		for row := 0; row < len(buf); row += tiles {
			for t, tile := range s.Tiles {
				e := buf[row+t]
				tile.L1.Access(e.Addr/lineBytes, e.Write, func() {})
				s.drainWarm()
			}
		}
		free <- buf[:cap(buf)]
	}
	return nil
}

// readWarm is the warmup's reader stage. It takes empty buffers from free
// and sends them filled on full, calling the readers in exactly the
// sequential order — entry-major, tile-minor — so a reader shared by
// two tiles still hands each the same entries. It reads exactly entries
// per reader and no further: the timed run and WarmSnapshot continue
// every stream from where the warmup left it. Each buffer holds whole
// rows of len(readers) entries; full has room for every buffer, so only
// the wait for a free one blocks, and a closed stop ends it there.
func readWarm(readers []trace.Reader, entries int, free <-chan []trace.Entry, full chan<- []trace.Entry, stop <-chan struct{}) {
	tiles := len(readers)
	for left := entries; left > 0; {
		var buf []trace.Entry
		select {
		case <-stop:
			return
		default:
		}
		select {
		case buf = <-free:
		case <-stop:
			return
		}
		rows := min(len(buf)/tiles, left)
		buf = buf[:rows*tiles]
		for row := 0; row < len(buf); row += tiles {
			for t, r := range readers {
				buf[row+t] = r.Next()
			}
		}
		left -= rows
		full <- buf
	}
}

// drainWarm delivers warmup messages synchronously; memory requests are
// answered on the spot.
func (s *System) drainWarm() {
	for s.warmHead < len(s.warmQ) {
		m := s.warmQ[s.warmHead]
		s.warmHead++
		switch m.Type {
		case coherence.MemRead:
			s.warmQ = append(s.warmQ, coherence.Msg{
				Type: coherence.MemData, Line: m.Line, Src: m.Dst, Dst: m.Src,
			})
		case coherence.MemWrite:
			// Functional write-back: nothing to do.
		case coherence.GetS, coherence.GetM, coherence.PutM, coherence.InvAck,
			coherence.FwdAckData, coherence.FwdNoData, coherence.MemData:
			s.Tiles[m.Dst].Home.Handle(m)
		default:
			s.Tiles[m.Dst].L1.Handle(m)
		}
	}
	s.warmQ = s.warmQ[:0]
	s.warmHead = 0
}

// ResetStats clears all measurement state (after warmup).
func (s *System) ResetStats() {
	s.Net.ResetStats()
	s.MCReqLatency = stats.Summary{}
	for _, tile := range s.Tiles {
		tile.L1.Hits, tile.L1.Misses, tile.L1.Coalesces, tile.L1.Blocks = 0, 0, 0, 0
		tile.L1.Upgrades, tile.L1.Invalidations = 0, 0
		tile.Home.L2Hits, tile.Home.L2Misses, tile.Home.Recalls = 0, 0, 0
		tile.Home.MemReads, tile.Home.MemWrites = 0, 0
		tile.Core.Insts, tile.Core.Cycles, tile.Core.StallCycles = 0, 0, 0
		tile.Core.MissRTT = stats.Summary{}
	}
	for _, mc := range s.MCs {
		mc.Reads, mc.Writes, mc.TotalQueueDelay, mc.TotalServiceTime, mc.Completed = 0, 0, 0, 0, 0
	}
}

// Step advances the system by one core cycle.
func (s *System) Step() error {
	s.now++
	if err := s.flush(); err != nil {
		return err
	}
	// Memory controllers, in fixed order so same-cycle responses always
	// inject identically (determinism gate).
	for _, t := range s.mcOrder {
		mc := s.MCs[t]
		for _, r := range mc.Tick(s.now) {
			if r.Write {
				continue
			}
			s.Send(coherence.Msg{Type: coherence.MemData, Line: r.Line, Src: t, Dst: r.Home}, 0)
		}
	}
	// Network at its own clock.
	s.netAccum += s.netRatio
	for s.netAccum >= 1 {
		s.netAccum--
		if err := s.Net.Step(); err != nil {
			return err
		}
	}
	// Cores.
	for _, tile := range s.Tiles {
		tile.Core.Step()
	}
	return nil
}

// Run advances the system for the given number of core cycles.
func (s *System) Run(cycles int64) error {
	return s.RunCtx(context.Background(), cycles)
}

// RunCtx is Run with cooperative cancellation: the context is consulted
// every traffic.CancelBatch-equivalent batch of core cycles (256), so a
// cancelled CMP study stops within one batch instead of finishing its
// full cycle budget. CMP runs do not checkpoint-suspend mid-flight —
// their completed results are amortized by the run cache instead — so a
// suspend request simply stops them via the context alongside
// cancellation.
func (s *System) RunCtx(ctx context.Context, cycles int64) error {
	if s.warmErr != nil {
		return s.unusable()
	}
	const batch = 256
	sus := suspend.FromContext(ctx)
	since := int64(0)
	for i := int64(0); i < cycles; i++ {
		if err := s.Step(); err != nil {
			return fmt.Errorf("cmp: cycle %d: %w", s.now, err)
		}
		if since++; since >= batch {
			reqstat.AddCycles(ctx, since)
			since = 0
			if err := ctx.Err(); err != nil {
				return err
			}
			if sus.Requested() {
				return suspend.ErrSuspended
			}
		}
	}
	reqstat.AddCycles(ctx, since)
	return nil
}

// AvgIPC returns the mean per-core IPC.
func (s *System) AvgIPC() float64 {
	var sum float64
	for _, t := range s.Tiles {
		sum += t.Core.IPC()
	}
	return sum / float64(len(s.Tiles))
}

// MissRTT aggregates the round-trip miss latency across cores (Figure
// 13(a) measures this from request generation to response arrival).
func (s *System) MissRTT() stats.Summary {
	var out stats.Summary
	for _, t := range s.Tiles {
		out.Merge(t.Core.MissRTT)
	}
	return out
}

// NetStats exposes the network statistics.
func (s *System) NetStats() *noc.Stats { return s.Net.Stats() }
