// Replaytrace demonstrates the trace file path end to end: record a
// synthetic workload to chunked trace files (standing in for a real
// Simics-style memory trace), then replay the files through the full CMP
// simulator on two network designs. Anything that implements
// trace.Reader — including parsers for your own trace formats — can be
// plugged in the same way.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/trace"
)

func main() {
	dir, err := os.MkdirTemp("", "heteronoc-traces")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Record: 64 per-core trace files of the SAP profile.
	p, err := trace.ProfileByName("SAP")
	if err != nil {
		log.Fatal(err)
	}
	const entries = 60000
	fmt.Printf("recording %d entries x 64 cores to %s\n", entries, dir)
	for c := 0; c < 64; c++ {
		f, err := os.Create(path(dir, c))
		if err != nil {
			log.Fatal(err)
		}
		err = trace.RecordChunked(f, trace.NewGenerator(p, c, 128), entries, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	// 2. Replay through the CMP on both networks.
	for _, l := range []core.Layout{
		core.NewBaseline(8, 8),
		core.NewLayout(core.PlacementDiagonal, 8, 8, true),
	} {
		trs := make([]trace.Reader, 64)
		files := make([]*trace.ChunkFile, 64)
		for c := 0; c < 64; c++ {
			r, err := trace.OpenChunked(path(dir, c), false)
			if err != nil {
				log.Fatal(err)
			}
			files[c], trs[c] = r, r
		}
		s, err := cmp.New(cmp.Config{Layout: l, Traces: trs})
		if err != nil {
			log.Fatal(err)
		}
		s.Warmup(30000)
		if err := s.Run(15000); err != nil {
			log.Fatal(err)
		}
		rep := s.Snapshot()
		fmt.Printf("\n=== %s ===\n%s", l.Name, rep)
		for _, f := range files {
			f.Close()
		}
	}
}

func path(dir string, core int) string {
	return filepath.Join(dir, fmt.Sprintf("sap-core%02d.trc2", core))
}
