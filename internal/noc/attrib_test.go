package noc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// newHeteroMeshNet builds an 8x8 mesh with a diagonal of big split-datapath
// routers, exercising wide links, combining, and the improved allocator in
// the attribution tests.
func newHeteroMeshNet(t testing.TB) *Network {
	t.Helper()
	m := topology.NewMesh(8, 8)
	routers := make([]RouterConfig, 64)
	for r := range routers {
		routers[r] = RouterConfig{VCs: 2, BufDepth: 4}
		if r%8 == r/8 { // main diagonal
			routers[r] = RouterConfig{VCs: 6, BufDepth: 8, Wide: true, SplitDatapath: true, ImprovedSA: true}
		}
	}
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewXY(m),
		Routers:        routers,
		WatchdogCycles: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// injectMixedLoad drives a deterministic mix of uniform and hotspot traffic
// hot enough to create real VC, switch and credit contention.
func injectMixedLoad(t testing.TB, n *Network, seed int64, cycles int, rate float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < cycles; c++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() >= rate {
				continue
			}
			dst := rng.Intn(64)
			if rng.Float64() < 0.3 {
				dst = 27 // hotspot near the center
			}
			if dst == src {
				continue
			}
			flits := 6
			if rng.Float64() < 0.5 {
				flits = 1
			}
			n.Inject(&Packet{Src: src, Dst: dst, NumFlits: flits})
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAttributionExactSum pins the core invariant: for every delivered
// packet the six cause buckets sum exactly to the measured end-to-end
// latency, with no negative bucket, on both homogeneous and heterogeneous
// meshes under contention.
func TestAttributionExactSum(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB) *Network
	}{
		{"baseline", func(tb testing.TB) *Network { return newMeshNet(tb) }},
		{"hetero-diagonal", newHeteroMeshNet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(t)
			checked := 0
			n.SetOnPacket(func(p *Packet) {
				a := p.Attribution()
				var sum int64
				for b, v := range a {
					if v < 0 {
						t.Fatalf("packet %d bucket %v negative: %d", p.ID, AttrBucket(b), v)
					}
					sum += v
				}
				if total := p.RecvCycle - p.CreateCycle; sum != total {
					t.Fatalf("packet %d: attribution sums to %d, latency %d (buckets %v)", p.ID, sum, total, a)
				}
				checked++
			})
			injectMixedLoad(t, n, 11, 3000, 0.04)
			runUntilQuiesced(t, n, 200000)
			if checked < 1000 {
				t.Fatalf("only %d packets checked", checked)
			}
			// Under this load the contention buckets must actually fire, or
			// the test proves nothing about the stall accounting.
			attr := n.Stats().Attribution()
			for _, b := range []AttrBucket{AttrVCAlloc, AttrSwitchAlloc, AttrCredit} {
				if attr[b] == 0 {
					t.Errorf("bucket %v never fired under contention", b)
				}
			}
			if res := n.Stats().AttrResidual(); res != 0 {
				t.Errorf("stats residual = %d, want 0", res)
			}
		})
	}
}

// TestAttributionRouterRollupSumsToPackets checks the per-router rollup is
// a lossless redistribution: summed over routers it equals the per-packet
// buckets summed over every delivered packet.
func TestAttributionRouterRollupSumsToPackets(t *testing.T) {
	n := newHeteroMeshNet(t)
	var fromPackets [NumAttrBuckets]int64
	n.SetOnPacket(func(p *Packet) {
		a := p.Attribution()
		for b := range a {
			fromPackets[b] += a[b]
		}
	})
	injectMixedLoad(t, n, 23, 2000, 0.04)
	runUntilQuiesced(t, n, 200000)
	var fromRouters [NumAttrBuckets]int64
	for _, ra := range n.RouterAttribution() {
		for b := range ra {
			fromRouters[b] += ra[b]
		}
	}
	if fromRouters != fromPackets {
		t.Fatalf("router rollup %v != per-packet sum %v", fromRouters, fromPackets)
	}
}

// TestAttributionObservationOnly runs the same seeded simulation with the
// counter path on and off: fingerprints (packet behavior and
// microarchitectural activity) must be bit-identical.
func TestAttributionObservationOnly(t *testing.T) {
	run := func(on bool) (uint64, uint64) {
		n := newMeshNet(t)
		n.SetAttribution(on)
		injectMixedLoad(t, n, 31, 1500, 0.05)
		runUntilQuiesced(t, n, 200000)
		return n.Fingerprint(), n.Stats().Fingerprint()
	}
	onNet, onStats := run(true)
	offNet, offStats := run(false)
	if onNet != offNet || onStats != offStats {
		t.Fatalf("attribution perturbed behavior: net %x/%x stats %x/%x", onNet, offNet, onStats, offStats)
	}
}

// TestAttributionShardInvariant requires identical per-packet attribution
// at every shard worker count — the counters must obey the same
// single-writer discipline as the kernel itself.
func TestAttributionShardInvariant(t *testing.T) {
	collect := func(workers int) map[uint64][NumAttrBuckets]int64 {
		n := newHeteroMeshNet(t)
		if workers > 0 {
			n.SetShardWorkers(workers)
			defer n.Close()
		}
		out := make(map[uint64][NumAttrBuckets]int64)
		n.SetOnPacket(func(p *Packet) { out[p.ID] = p.Attribution() })
		injectMixedLoad(t, n, 7, 1200, 0.05)
		runUntilQuiesced(t, n, 200000)
		return out
	}
	want := collect(0)
	for _, w := range []int{2, 5} {
		got := collect(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d delivered %d packets, want %d", w, len(got), len(want))
		}
		for id, a := range want {
			if got[id] != a {
				t.Fatalf("workers=%d packet %d attribution %v, want %v", w, id, got[id], a)
			}
		}
	}
}

// newEscapeMeshNet builds an 8x8 table-routed mesh with big routers on
// both diagonals and a 4-cycle escape threshold, so the escape rescue
// fires and revokes VC grants under load.
func newEscapeMeshNet(t testing.TB) *Network {
	t.Helper()
	m := topology.NewMesh(8, 8)
	big := make([]bool, 64)
	routers := make([]RouterConfig, 64)
	for r := range routers {
		routers[r] = RouterConfig{VCs: 2, BufDepth: 5, SplitDatapath: true}
	}
	for i := 0; i < 8; i++ {
		for _, r := range []int{m.RouterAt(i, i), m.RouterAt(7-i, i)} {
			big[r] = true
			routers[r] = RouterConfig{VCs: 6, BufDepth: 5, Wide: true, SplitDatapath: true}
		}
	}
	alg := routing.NewTableXY(m, routing.TableXYConfig{Flagged: []int{0, 7, 56, 63}, Big: big, EscapeThreshold: 4})
	n, err := New(Config{Topo: m, Routing: alg, Routers: routers, WatchdogCycles: 50000})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// tracedStallSplit rebuilds each packet's vc_alloc, switch_alloc and
// credit cycles from the args of the detail records, and counts the hops
// whose VC grant was revoked and granted again.
func tracedStallSplit(recs []FlitRecord) (split map[uint64][3]int64, regranted int) {
	type hop struct {
		pkt    uint64
		router int16
	}
	lastGrant := map[hop]int32{}
	grants := map[hop]int{}
	split = map[uint64][3]int64{}
	for _, r := range recs {
		s := split[r.Packet]
		switch r.Kind {
		case EvVCAlloc:
			k := hop{r.Packet, r.Router}
			lastGrant[k] = r.Arg // running total: the last grant is the hop's value
			if grants[k]++; grants[k] == 2 {
				regranted++
			}
		case EvSwitchAlloc:
			s[1] += int64(r.Arg) // 0 on body flits
		case EvCreditStall:
			s[2] += int64(r.Arg)
		}
		split[r.Packet] = s
	}
	for k, v := range lastGrant {
		s := split[k.pkt]
		s[0] += int64(v)
		split[k.pkt] = s
	}
	return split, regranted
}

// TestAttrTraceRecorder checks that the stall split carried by the
// FlitTracer's detail events is exact: for every delivered packet the
// args rebuild Packet.Attribution's vc_alloc, switch_alloc and credit
// buckets, and the exporter's per-router stall_cycles counters end at
// Network.RouterAttribution. It runs on a baseline, a hetero, a sharded
// (an installed tracer forces the sequential kernel) and an escape-VC
// mesh, whose rescue revokes grants that are later granted again.
func TestAttrTraceRecorder(t *testing.T) {
	if size := unsafe.Sizeof(FlitRecord{}); size > 32 {
		t.Fatalf("FlitRecord is %d bytes, want <= 32", size)
	}
	for _, tc := range []struct {
		name    string
		build   func(testing.TB) *Network
		workers int
		regrant bool
		rate    float64
	}{
		{"baseline", func(tb testing.TB) *Network { return newMeshNet(tb) }, 0, false, 0.05},
		{"hetero-diagonal", newHeteroMeshNet, 0, false, 0.05},
		{"sharded", newHeteroMeshNet, 4, false, 0.05},
		{"escape", newEscapeMeshNet, 0, true, 0.06},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(t)
			if tc.workers > 0 {
				n.SetShardWorkers(tc.workers)
				defer n.Close()
			}
			ft := NewNetworkFlitTracer(n, FlitTracerConfig{PerRouter: 1 << 14})
			n.SetTracer(ft)
			want := map[uint64][3]int64{}
			n.SetOnPacket(func(p *Packet) {
				a := p.Attribution()
				want[p.ID] = [3]int64{a[AttrVCAlloc], a[AttrSwitchAlloc], a[AttrCredit]}
			})
			injectMixedLoad(t, n, 3, 600, tc.rate)
			runUntilQuiesced(t, n, 200000)
			if ft.Dropped() != 0 {
				t.Fatalf("rings dropped %d records; grow the test capacity", ft.Dropped())
			}
			recs := ft.Records()
			got, regranted := tracedStallSplit(recs)
			stalled := 0
			for id, w := range want {
				if got[id] != w {
					t.Fatalf("packet %d: records carry vc/sa/credit %v, attribution says %v", id, got[id], w)
				}
				if w != [3]int64{} {
					stalled++
				}
			}
			if stalled == 0 {
				t.Fatal("no packet stalled; the load proves nothing")
			}
			if tc.regrant && regranted == 0 {
				t.Fatalf("no regranted hop among %d escapes", n.Stats().Escapes)
			}
			t.Logf("%d packets, %d stalled, %d regranted hops, %d escapes", len(want), stalled, regranted, n.Stats().Escapes)

			// The exporter's counter tracks end at the router rollup.
			last := map[int]map[string]any{}
			for _, e := range ChromeTraceEvents(len(n.routers), recs) {
				if e.Name == "stall_cycles" {
					last[e.PID] = e.Args
				}
			}
			if len(last) == 0 {
				t.Fatal("export has no stall_cycles counters")
			}
			for r, ra := range n.RouterAttribution() {
				c := last[r]
				if c == nil {
					c = map[string]any{"vc_alloc": int64(0), "switch_alloc": int64(0), "credit": int64(0)}
				}
				if c["vc_alloc"] != ra[AttrVCAlloc] || c["switch_alloc"] != ra[AttrSwitchAlloc] || c["credit"] != ra[AttrCredit] {
					t.Fatalf("router %d: stall_cycles counter ends at %v, rollup %v", r, c, ra)
				}
			}
			var out bytes.Buffer
			if err := ft.WriteChromeTrace(&out); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{`"stall_cycles"`, `"sw_alloc"`, `"stall"`} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("chrome trace missing %s", want)
				}
			}
		})
	}
}

// TestAttributionZeroLoad pins the bucket values of a lone packet: all
// contention buckets zero, link term exactly 1+3*(hops+1), serialization
// exactly the ideal drain of the remaining flits.
func TestAttributionZeroLoad(t *testing.T) {
	n := newMeshNet(t)
	var done *Packet
	n.SetOnPacket(func(p *Packet) { done = p })
	n.Inject(&Packet{Src: 0, Dst: 63, NumFlits: 6})
	runUntilQuiesced(t, n, 500)
	if done == nil {
		t.Fatal("packet not delivered")
	}
	a := done.Attribution()
	if a[AttrVCAlloc] != 0 || a[AttrSwitchAlloc] != 0 || a[AttrCredit] != 0 {
		t.Errorf("contention at zero load: %v", a)
	}
	if want := int64(1 + 3*(done.Hops+1)); a[AttrLink] != want {
		t.Errorf("link = %d, want %d", a[AttrLink], want)
	}
	if want := int64(5); a[AttrSerialization] != want {
		t.Errorf("serialization = %d, want %d (6 flits on narrow links)", a[AttrSerialization], want)
	}
}
