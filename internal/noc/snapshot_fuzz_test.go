package noc

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// restoreMeasured restores data into n and returns the bytes allocated by
// the restore alone, its wall time and its error.
func restoreMeasured(n *Network, data []byte) (grew uint64, took time.Duration, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = n.RestoreSnapshot(data)
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

// spliceUvarint replaces the uvarint at off with v and recomputes the CRC.
func spliceUvarint(data []byte, off int, v uint64) []byte {
	_, n := binary.Uvarint(data[off:])
	out := append([]byte(nil), data[:off]...)
	out = binary.AppendUvarint(out, v)
	out = append(out, data[off+n:]...)
	return withCRC(out)
}

// TestRestoreRefusesForgedCounts pins forged mid-run 8x8 noc-net
// checkpoints that used to panic, allocate gigabytes or never return: a
// packet count whose first byte is 0xff, a packet count of 2^29, and a
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
	data, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := restoreMeasured(newMeshNet(t), data); err != nil {
		t.Fatalf("genuine checkpoint refused: %v", err)
	}

	// The packet count follows the structural signature.
	w := ckpt.NewWriter(ckpt.Header{Kind: KindNetwork, Version: netSnapshotVersion, Cycle: n.cycle,
		Flits: int64(n.flitsInNetwork), Queued: int64(n.queuedPackets), NextPktID: n.nextPktID, Fingerprint: n.Fingerprint()})
	n.walkSignature(&walker{w: w})
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
	marked, err := n.Snapshot()
	first.at = saved
	if err != nil {
		t.Fatal(err)
	}
	mb := binary.AppendVarint(nil, marker)
	if bytes.Count(marked, mb) != 1 {
		t.Fatal("marker not unique")
	}
	at := bytes.Index(marked, mb)
	credOff := at - len(binary.AppendVarint(nil, int64(first.vc))) - len(binary.AppendUvarint(nil, uint64(up.creditQ.n)))
	if v, _ := binary.Uvarint(data[credOff:]); v != uint64(up.creditQ.n) || !bytes.Equal(data[:at], marked[:at]) {
		t.Fatal("credit-event count offset does not match the encoder")
	}

	byteFF := append([]byte(nil), data...)
	byteFF[pktOff] = 0xff
	for name, forged := range map[string][]byte{
		"packet count byte 0xff":    withCRC(byteFF),
		"packet count 2^29":         spliceUvarint(data, pktOff, 1<<29),
		"terminal 25 credits 2^40":  spliceUvarint(data, credOff, 1<<40),
		"terminal 25 credits len/2": spliceUvarint(data, credOff, uint64(len(data)/2)),
	} {
		grew, took, err := restoreMeasured(newMeshNet(t), forged)
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

// FuzzRestoreSnapshot mutates real mid-run noc-net checkpoints, with the
// CRC footer recomputed so the mutations reach the body decoder, and
// requires refuse-or-run: no restore may panic, take longer than a second
// or allocate beyond the bound above, and an accepted restore must step
// 300 cycles without a panic or a watchdog error and then pass
// CheckInvariants. The seeds are the 4x4 fault-armed mesh past its link
// failure and a Diagonal+BL mesh mid-injection (wide links, a terminal
// driving two NI streams, unequal VC counts); the bool selects the target.
func FuzzRestoreSnapshot(f *testing.F) {
	n := snapFuzzNet(f)
	playSchedule(f, n, makeSchedule(9, 16, 200, 0.08, 4), 0, 90)
	faulty, err := n.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(faulty, false)

	h := heteroDiagonalNet(f)
	evs := makeSchedule(16, 64, 400, 0.06, 8)
	next := playSchedule(f, h, evs, 0, 30)
	for !twoStreams(h) {
		next = playSchedule(f, h, evs, next, h.Cycle()+1)
	}
	hetero, err := h.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hetero, true)

	// The genuine seeds must restore and run, or a validation that refused
	// everything would pass the target vacuously.
	for _, seed := range []struct {
		data   []byte
		hetero bool
	}{{faulty, false}, {hetero, true}} {
		n := fuzzTarget(f, seed.hetero)
		if err := n.RestoreSnapshot(seed.data); err != nil {
			f.Fatalf("genuine seed (hetero %v) refused: %v", seed.hetero, err)
		}
		if err := runRestored(n); err != nil {
			f.Fatalf("genuine seed (hetero %v): %v", seed.hetero, err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, hetero bool) {
		data = withCRC(data)
		n := fuzzTarget(t, hetero)
		grew, took, err := restoreMeasured(n, data)
		if bound := restoreAllocPerByte*uint64(len(data)) + restoreAllocSlack; grew > bound {
			t.Fatalf("restore of %d bytes allocated %d bytes (bound %d)", len(data), grew, bound)
		}
		if took > time.Second {
			t.Fatalf("restore of %d bytes took %v", len(data), took)
		}
		if err != nil {
			return
		}
		if err := runRestored(n); err != nil {
			t.Fatalf("accepted checkpoint: %v", err)
		}
	})
}

// fuzzTarget builds the network FuzzRestoreSnapshot restores into.
func fuzzTarget(t testing.TB, hetero bool) *Network {
	if hetero {
		return heteroDiagonalNet(t)
	}
	return snapFuzzNet(t)
}

// runRestored steps a restored network 300 cycles and audits it: an
// accepted checkpoint must run without a panic or a watchdog error and
// keep every invariant.
func runRestored(n *Network) error {
	for c := 0; c < 300; c++ {
		if err := n.Step(); err != nil {
			return fmt.Errorf("failed at step %d: %w", c, err)
		}
	}
	if err := n.CheckInvariants(); err != nil {
		return fmt.Errorf("broke an invariant within 300 steps: %w", err)
	}
	return nil
}

// twoStreams reports whether some terminal is injecting two packets at
// once, which only a wide injection link allows.
func twoStreams(n *Network) bool {
	for t := range n.nis {
		if len(n.nis[t].streams) == 2 {
			return true
		}
	}
	return false
}
