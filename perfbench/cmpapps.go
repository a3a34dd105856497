package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"heteronoc/internal/cmp"
	"heteronoc/internal/runcache"
	"heteronoc/internal/trace"
	"heteronoc/internal/warm"
)

const (
	cmpTiles     = 64
	cmpLineBytes = 128
)

// cmpApps is the cmp-apps workload: the full 64-tile system. For each
// trace workload the timed phase builds the shared warm checkpoint once
// (warm.System, then WarmSnapshot) and restores it into Baseline and
// Diagonal+BL before running a fixed number of cycles. One workload
// replays an HNTR2 file recorded during set-up, so the trace and ckpt
// layers are used both generator-backed and file-backed.
type cmpApps struct {
	in  cmpInputs
	dir string
}

func newCmpApps(in cmpInputs) (bench, error) {
	runcache.SetEnabled(false)
	dir, err := os.MkdirTemp("", "perfbench-cmp-")
	if err != nil {
		return nil, err
	}
	return &cmpApps{in: in, dir: dir}, nil
}

func (b *cmpApps) close() { os.RemoveAll(b.dir) }

// generator returns core's generator-backed reader for w.
func generator(w cmpWorkload, core int) (trace.Reader, error) {
	if adv, ok := trace.WorkloadByName(w.Name); ok {
		p, err := trace.ProfileByName(adv.Base)
		if err != nil {
			return nil, err
		}
		p = trace.MorphProfile(p, adv.PMorph)
		p.Name = adv.Name
		g := trace.NewGeneratorAt(p, core, cmpLineBytes, w.BaseLine)
		return trace.NewMorph(g, adv.Spec, cmpTiles, cmpLineBytes, w.MorphSeed+uint64(core)), nil
	}
	p, err := trace.ProfileByName(w.Name)
	if err != nil {
		return nil, err
	}
	return trace.NewGeneratorAt(p, core, cmpLineBytes, w.BaseLine), nil
}

func (b *cmpApps) tracePath(w cmpWorkload, core int) string {
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d.hntr2", w.Name, core))
}

// record writes every core's trace of w to an HNTR2 file and returns the
// bytes written.
func (b *cmpApps) record(w cmpWorkload) (int64, error) {
	var total int64
	for c := 0; c < cmpTiles; c++ {
		src, err := generator(w, c)
		if err != nil {
			return 0, err
		}
		f, err := os.Create(b.tracePath(w, c))
		if err != nil {
			return 0, err
		}
		err = trace.RecordChunked(f, src, b.in.FileEntries, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		st, err := os.Stat(b.tracePath(w, c))
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// readers builds one system's per-core readers; files lists the opened
// trace files so the caller can check and close them.
func (b *cmpApps) readers(w cmpWorkload) ([]trace.Reader, []*trace.ChunkFile, error) {
	out := make([]trace.Reader, cmpTiles)
	var files []*trace.ChunkFile
	for c := range out {
		if !w.FromFile {
			r, err := generator(w, c)
			if err != nil {
				return nil, nil, err
			}
			out[c] = r
			continue
		}
		f, err := trace.OpenChunked(b.tracePath(w, c), false)
		if err != nil {
			closeAll(files)
			return nil, nil, err
		}
		files = append(files, f)
		out[c] = f
	}
	return out, files, nil
}

func closeAll(files []*trace.ChunkFile) {
	for _, f := range files {
		f.Close()
	}
}

// reportFP hashes everything a CMP run reports plus the network's own
// fingerprint.
func reportFP(s *cmp.System) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%016x", s.Snapshot(), s.Net.Fingerprint())
	return fmt.Sprintf("%016x", h.Sum64())
}

func bytesFP(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// system is one cmp.System of a round with the trace files it reads.
type system struct {
	layout string
	s      *cmp.System
	files  []*trace.ChunkFile
}

// cmpTotals accumulates a round's per-layer measurements.
type cmpTotals struct {
	newT, recordT, warmT, snapT, restoreT, seekT, runT time.Duration
	fileBytes, snapBytes, insts, packets, mpki, cycles float64
	runs                                               int
}

func (b *cmpApps) round(sc scope) (*roundResult, error) {
	rr := newRound()
	hits0, misses0 := runcache.Stats()
	execs0 := runcache.Execs()
	var t cmpTotals
	for _, w := range b.in.Workloads {
		if err := b.workload(sc, w, rr, &t); err != nil {
			return nil, err
		}
	}
	rr.layer["cmp.new_ms"] = millis(t.newT)
	rr.layer["cmp.ns_per_cycle"] = ratio(float64(t.runT.Nanoseconds()), t.cycles)
	rr.layer["cmp_cycles_per_s"] = ratio(t.cycles, t.runT.Seconds())
	rr.layer["cmp.instructions"] = t.insts
	rr.layer["cmp.net_packets"] = t.packets
	rr.layer["cmp.l1_mpki"] = ratio(t.mpki, float64(t.runs))
	rr.layer["warm.warmup_ms"] = millis(t.warmT)
	rr.layer["ckpt.snapshot_ms"] = millis(t.snapT)
	rr.layer["ckpt.snapshot_bytes"] = t.snapBytes
	rr.layer["ckpt.restore_ms"] = millis(t.restoreT)
	rr.layer["ckpt.restore_seek_ms"] = millis(t.seekT)
	rr.layer["trace.record_ms"] = millis(t.recordT)
	rr.layer["trace.file_bytes"] = t.fileBytes

	hits1, misses1 := runcache.Stats()
	if hits1 != hits0 || misses1 != misses0 || runcache.Execs() != execs0 || runcache.Dir() != "" {
		rr.fail("run cache moved (hits %d->%d, misses %d->%d, execs %d->%d, dir %q)",
			hits0, hits1, misses0, misses1, execs0, runcache.Execs(), runcache.Dir())
	}
	return rr, nil
}

// workload runs one trace workload's share of a round. Set-up records the
// trace file (file-backed workload) and builds a template system for the
// warm checkpoint plus one system per layout; the timed phase warms the
// template once, then restores and runs every layout.
func (b *cmpApps) workload(sc scope, w cmpWorkload, rr *roundResult, t *cmpTotals) error {
	t0 := time.Now()
	setup := sc.child("bench", "setup "+w.Name)
	var err error
	if w.FromFile {
		var n int64
		t.recordT += setup.call("trace", "trace.RecordChunked", func() { n, err = b.record(w) })
		if err != nil {
			return fmt.Errorf("%s: recording trace: %w", w.Name, err)
		}
		t.fileBytes += float64(n)
	}
	var systems []system
	defer func() {
		for _, s := range systems {
			closeAll(s.files)
		}
	}()
	for _, name := range append([]string{"template"}, b.in.Layouts...) {
		ln := name
		if name == "template" {
			ln = "Baseline" // warm state is layout-independent
		}
		var trs []trace.Reader
		var files []*trace.ChunkFile
		setup.call("trace", "trace readers", func() { trs, files, err = b.readers(w) })
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		var s *cmp.System
		t.newT += setup.call("cmp", "cmp.New", func() {
			s, err = cmp.New(cmp.Config{Layout: layoutByName(ln, 8), Traces: trs})
		})
		if err != nil {
			closeAll(files)
			return fmt.Errorf("%s/%s: %w", w.Name, name, err)
		}
		systems = append(systems, system{name, s, files})
	}
	setup.end()
	rr.setup += time.Since(t0)

	t1 := time.Now()
	timed := sc.child("bench", "timed "+w.Name)
	defer func() {
		timed.end()
		rr.wall += time.Since(t1)
	}()
	tmpl := systems[0]
	var snap []byte
	dw := timed.call("warm", "warm.System", func() {
		warm.System(context.Background(), tmpl.s, layoutByName("Baseline", 8), w.Name, b.in.WarmEntries)
	})
	ds := timed.call("ckpt", "cmp.System.WarmSnapshot", func() { snap, err = tmpl.s.WarmSnapshot() })
	t.warmT += dw
	t.snapT += ds
	t.snapBytes += float64(len(snap))
	rr.add("warm/"+w.Name, dw+ds, bytesFP(snap), err)
	if err != nil {
		return nil
	}
	for _, sys := range systems[1:] {
		key := w.Name + "/" + sys.layout
		dr := timed.call("ckpt", "cmp.System.RestoreWarmSnapshot", func() { err = sys.s.RestoreWarmSnapshot(snap) })
		if w.FromFile {
			t.seekT += dr
		} else {
			t.restoreT += dr
		}
		if err != nil {
			rr.add(key, dr, "", err)
			continue
		}
		c0 := sys.s.Net.Cycle()
		dc := timed.call("cmp", "cmp.System.Run "+key, func() { err = sys.s.Run(b.in.Cycles) })
		t.runT += dc
		t.cycles += float64(b.in.Cycles)
		rr.routerCycles += float64(sys.s.Net.Cycle()-c0) * cmpTiles
		rr.add(key, dr+dc, reportFP(sys.s), err)
		if err != nil {
			continue
		}
		rep := sys.s.Snapshot()
		for _, tile := range sys.s.Tiles {
			t.insts += float64(tile.Core.Insts)
		}
		t.packets += float64(rep.NetPackets)
		t.mpki += rep.L1MPKI
		t.runs++
		for _, f := range sys.files {
			if f.Exhausted() || f.Err() != nil {
				rr.fail("%s: trace file ran out or failed (%v); record more entries", key, f.Err())
				break
			}
		}
	}
	return nil
}
