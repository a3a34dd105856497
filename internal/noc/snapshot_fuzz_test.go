package noc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/fault"
	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// Allocation bound for one restore: restoreAllocPerByte bytes per input
// byte plus restoreAllocSlack. Every decoded count is capped by the bytes
// that remain, and the largest decoded element per input byte is a packet
// table entry (a ~200-byte Packet for ~25 input bytes) or an event queue
// entry doubling its ring; the slack covers the reader, the fault overlay
// and error values.
const (
	restoreAllocPerByte = 64
	restoreAllocSlack   = 1 << 20
)

// restoreMeasured restores data into a fresh network from build (into a
// fresh Reliable over it when data is a noc-rel checkpoint) and returns
// the bytes allocated by the restore alone, its wall time and its error.
func restoreMeasured(t testing.TB, build func(testing.TB) *Network, data []byte) (grew uint64, took time.Duration, err error) {
	n := build(t)
	var rel *Reliable
	if h, err := ckpt.ReadHeader(data); err == nil && h.Kind == KindReliable {
		rel = NewReliable(n, ReliableConfig{Timeout: 256, MaxRetries: 6})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if rel != nil {
		err = rel.RestoreSnapshot(data)
	} else {
		err = n.RestoreSnapshot(data, nil)
	}
	took = time.Since(start)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, took, err
}

// withCRC returns data with its CRC footer recomputed.
func withCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	if n := len(out); n >= 4 {
		binary.LittleEndian.PutUint32(out[n-4:], crc32.ChecksumIEEE(out[:n-4]))
	}
	return out
}

// spliceVarint replaces the varint at off with v and recomputes the CRC.
func spliceVarint(data []byte, off int, v int64) []byte {
	_, n := binary.Varint(data[off:])
	out := append([]byte(nil), data[:off]...)
	out = binary.AppendVarint(out, v)
	out = append(out, data[off+n:]...)
	return withCRC(out)
}

// TestRestoreRefusesForgedCounts pins three forged mid-run 8x8 noc-net
// checkpoints that used to panic, allocate gigabytes or never return:
// a packet count whose first byte is 0xff, a packet count of 2^29, and a
// credit-event count of 2^40 in terminal 25's injection port; a fourth
// credit count below the remaining bytes must stop at the end of the data.
// Each must be refused without a panic, within the allocation bound above
// and within a second.
func TestRestoreRefusesForgedCounts(t *testing.T) {
	n := newMeshNet(t)
	evs := makeSchedule(5, 64, 2000, 0.05, 6)
	next := playSchedule(t, n, evs, 0, 400)
	up := &n.nis[25].up
	for up.creditQ.n == 0 {
		next = playSchedule(t, n, evs, next, n.Cycle()+1)
	}
	data, err := n.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	mesh := func(tb testing.TB) *Network { return newMeshNet(tb) }
	if _, _, err := restoreMeasured(t, mesh, data); err != nil {
		t.Fatalf("genuine checkpoint refused: %v", err)
	}

	// The packet count follows the structural signature and lastMove.
	w := ckpt.NewWriter(ckpt.Header{Kind: KindNetwork, Version: netSnapshotVersion, Cycle: n.cycle,
		Flits: int64(n.flitsInNetwork), Queued: int64(n.queuedPackets), NextPktID: n.nextPktID, Fingerprint: n.Fingerprint()})
	n.encodeSignature(w)
	w.I64(n.lastMove)
	pktOff := len(w.Finish()) - 4
	if !bytes.Equal(data[:pktOff], w.Finish()[:pktOff]) {
		t.Fatal("packet-count offset does not match the encoder")
	}

	// Terminal 25's credit-event count sits just before its first credit
	// event: mark that event's maturity cycle and find it.
	first := &up.creditQ.buf[up.creditQ.head]
	const marker = 0x5eed5eed5
	saved := first.at
	first.at = marker
	marked, err := n.Snapshot(nil)
	first.at = saved
	if err != nil {
		t.Fatal(err)
	}
	mb := binary.AppendVarint(nil, marker)
	if bytes.Count(marked, mb) != 1 {
		t.Fatal("marker not unique")
	}
	at := bytes.Index(marked, mb)
	credOff := at - len(binary.AppendVarint(nil, int64(first.vc))) - len(binary.AppendVarint(nil, int64(up.creditQ.n)))
	if v, _ := binary.Varint(data[credOff:]); v != int64(up.creditQ.n) || !bytes.Equal(data[:at], marked[:at]) {
		t.Fatal("credit-event count offset does not match the encoder")
	}

	byteFF := append([]byte(nil), data...)
	byteFF[pktOff] = 0xff
	for name, forged := range map[string][]byte{
		"packet count byte 0xff":    withCRC(byteFF),
		"packet count 2^29":         spliceVarint(data, pktOff, 1<<29),
		"terminal 25 credits 2^40":  spliceVarint(data, credOff, 1<<40),
		"terminal 25 credits len/2": spliceVarint(data, credOff, int64(len(data)/2)),
	} {
		grew, took, err := restoreMeasured(t, mesh, forged)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if bound := restoreAllocPerByte*uint64(len(forged)) + restoreAllocSlack; grew > bound {
			t.Errorf("%s: %d-byte input allocated %d bytes (bound %d)", name, len(forged), grew, bound)
		}
		if took > time.Second {
			t.Errorf("%s: refusal took %v", name, took)
		}
	}
}

// snapFuzzNet builds the 4x4 fault-armed table-routed mesh the restore
// fuzz target decodes into.
func snapFuzzNet(t testing.TB) *Network {
	t.Helper()
	m := topology.NewMesh(4, 4)
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewFaultTable(m, routing.FaultTableConfig{EscapeThreshold: 32}),
		Routers:        []RouterConfig{{VCs: 3, BufDepth: 4}},
		FlitWidthBits:  192,
		WatchdogCycles: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{}
	plan.FailLink(60, m.RouterAt(1, 1), topology.PortEast)
	plan.AddTransient(40, m.RouterAt(2, 2), topology.PortNorth, 50, true)
	if err := n.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	return n
}

// FuzzRestoreSnapshot mutates real mid-run noc-net and noc-rel
// checkpoints, recomputing the CRC footer so the mutations reach the body
// decoders, and runs the restore alone: no input may panic, take longer
// than a second or allocate beyond the bound above. (An accepted mutation
// may still describe a state Step cannot run; that needs validation of
// the packet graph and is not checked here.)
func FuzzRestoreSnapshot(f *testing.F) {
	n := snapFuzzNet(f)
	evs := makeSchedule(9, 16, 200, 0.08, 4)
	playSchedule(f, n, evs, 0, 90)
	net, err := n.Snapshot(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(net)

	rel := NewReliable(snapFuzzNet(f), ReliableConfig{Timeout: 256, MaxRetries: 6})
	sends := makeSchedule(10, 16, 80, 0.05, 4)
	next := 0
	for rel.net.Cycle() < 90 {
		for next < len(sends) && sends[next].cycle <= rel.net.Cycle()+1 {
			_, _ = rel.Send(sends[next].src, sends[next].dst, sends[next].flits, 0, int64(next))
			next++
		}
		if err := rel.Step(); err != nil {
			f.Fatal(err)
		}
	}
	relSnap, err := rel.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(relSnap)
	for _, seed := range [][]byte{net, relSnap} {
		if _, _, err := restoreMeasured(f, snapFuzzNet, seed); err != nil {
			f.Fatalf("genuine seed refused: %v", err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		data = withCRC(data)
		grew, took, _ := restoreMeasured(t, snapFuzzNet, data)
		if bound := restoreAllocPerByte*uint64(len(data)) + restoreAllocSlack; grew > bound {
			t.Fatalf("restore of %d bytes allocated %d bytes (bound %d)", len(data), grew, bound)
		}
		if took > time.Second {
			t.Fatalf("restore of %d bytes took %v", len(data), took)
		}
	})
}
