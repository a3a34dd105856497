// Command obscheck inspects and compares run manifests (see obs.Manifest).
//
// With one manifest it prints the run identity (canonical hash, config
// hash, per-experiment fingerprints). With several it additionally checks
// that they all describe the same run — same canonical form modulo wall
// time — and exits nonzero on any divergence, printing the first field
// that differs. CI uses this to pin manifest determinism: two identical
// cmd/experiments invocations must produce interchangeable manifests.
//
// Usage:
//
//	obscheck -manifests run1.manifest.json[,run2.manifest.json,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"heteronoc/internal/obs"
)

func main() {
	paths := flag.String("manifests", "", "comma-separated manifest files (required)")
	flag.Parse()
	if *paths == "" {
		fmt.Fprintln(os.Stderr, "obscheck: -manifests is required")
		os.Exit(2)
	}
	var names []string
	var ms []*obs.Manifest
	for _, p := range strings.Split(*paths, ",") {
		p = strings.TrimSpace(p)
		m, err := obs.ReadManifest(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		names = append(names, p)
		ms = append(ms, m)
	}

	first := ms[0]
	fmt.Printf("%s: run %s (tool %s, config %s, %d experiments, cache: %d hits, %d disk hits, %d recipes run, %.1fs)\n",
		names[0], first.Hash(), first.Tool, first.ConfigHash, len(first.Experiments),
		first.RuncacheHits, first.DiskHits, first.RecipesRun, first.WallTimeSec)
	ids := make([]string, 0, len(first.Fingerprints))
	for id := range first.Fingerprints {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("  %-12s %s\n", id, first.Fingerprints[id])
	}

	ok := true
	for i := 1; i < len(ms); i++ {
		if ms[i].Hash() == first.Hash() {
			fmt.Printf("%s: run %s (identical, %.1fs)\n", names[i], ms[i].Hash(), ms[i].WallTimeSec)
			continue
		}
		ok = false
		fmt.Printf("%s: run %s DIFFERS from %s\n", names[i], ms[i].Hash(), names[0])
		reportDiff(first, ms[i])
	}
	if !ok {
		os.Exit(1)
	}
}

// reportDiff prints the first canonical-form line where the two manifests
// diverge, with one line of context — enough to name the drifting field.
func reportDiff(a, b *obs.Manifest) {
	la := strings.Split(string(a.Canonical()), "\n")
	lb := strings.Split(string(b.Canonical()), "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		va, vb := "", ""
		if i < len(la) {
			va = la[i]
		}
		if i < len(lb) {
			vb = lb[i]
		}
		if va != vb {
			fmt.Printf("  first divergence (canonical line %d):\n    - %s\n    + %s\n",
				i+1, strings.TrimSpace(va), strings.TrimSpace(vb))
			return
		}
	}
}
