package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Manifest records the complete provenance of one experiment run: what was
// asked for (config hash, experiment ids, scale, seeds, layouts), what the
// run produced (per-experiment result fingerprints), how the run-cache
// behaved, and how long it took. A manifest is written next to every
// cmd/experiments result file, so any artifact can be traced back to the
// exact recipe that produced it.
//
// Everything except WallTimeSec and the run-cache counters (which depend
// on what earlier processes cached) is deterministic: two identical runs
// of a deterministic simulator produce byte-identical manifests modulo
// those fields — a property pinned by TestManifestDeterministic. Canonical
// renders that identity form (nondeterministic fields zeroed).
type Manifest struct {
	// Tool names the producing command ("experiments", "noxsim", ...).
	Tool string `json:"tool"`
	// ConfigHash addresses the full input recipe (experiment ids + every
	// scale parameter + seeds); see experiments.ConfigHash.
	ConfigHash string `json:"config_hash"`
	// Scale is the scale preset name ("quick", "full").
	Scale string `json:"scale,omitempty"`
	// Experiments lists the experiment ids that ran, in run order.
	Experiments []string `json:"experiments,omitempty"`
	// Seeds lists the RNG seeds the run used.
	Seeds []int64 `json:"seeds,omitempty"`
	// Layout names the network layout for single-run tools.
	Layout string `json:"layout,omitempty"`
	// Fingerprints maps experiment id -> result fingerprint (a hash of the
	// experiment's full metric map; see experiments.Report.Fingerprint).
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
	// RuncacheHits, DiskHits and RecipesRun count the run's memory hits,
	// disk hits and recipes run because neither cache tier held the key;
	// DiskMisses and DiskEvictions are the disk tier's other counters.
	// Like wall time they depend on what earlier processes left in the
	// cache directory (a warm rerun reads from disk what a cold run
	// executed), so Canonical zeroes them.
	RuncacheHits  int64 `json:"runcache_hits"`
	DiskHits      int64 `json:"runcache_disk_hits,omitempty"`
	RecipesRun    int64 `json:"runcache_recipes_run"`
	DiskMisses    int64 `json:"runcache_disk_misses,omitempty"`
	DiskEvictions int64 `json:"runcache_disk_evictions,omitempty"`
	// WallTimeSec is elapsed wall time, nondeterministic by nature.
	WallTimeSec float64 `json:"wall_time_sec"`
	// Spans is the run's phase span tree (diagnostics). Span durations are
	// wall clock, so Canonical excludes spans entirely: manifest identity
	// never depends on timing.
	Spans []*Span `json:"spans,omitempty"`
}

// Canonical renders the deterministic identity form: indented JSON with
// wall time and the run-cache counters zeroed. Two runs of the same
// recipe produce byte-identical canonical forms, whatever the cache held.
func (m *Manifest) Canonical() []byte {
	c := *m
	c.WallTimeSec = 0
	c.RuncacheHits, c.DiskHits, c.RecipesRun = 0, 0, 0
	c.DiskMisses, c.DiskEvictions = 0, 0
	c.Spans = nil
	// Deep-copy and sort the slices JSON would otherwise render in caller
	// order; run order is part of the recipe, so Experiments stays as-is,
	// but Seeds are a set.
	c.Seeds = append([]int64(nil), m.Seeds...)
	sort.Slice(c.Seeds, func(i, j int) bool { return c.Seeds[i] < c.Seeds[j] })
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		// Manifest contains only marshalable fields; reaching this is a
		// programming error.
		panic(fmt.Sprintf("obs: manifest marshal: %v", err))
	}
	return append(data, '\n')
}

// Hash returns a 64-bit FNV-1a hash of the canonical form, usable as a
// compact run identity.
func (m *Manifest) Hash() string {
	return fmt.Sprintf("%016x", HashBytes(m.Canonical()))
}

// WriteFile writes the manifest (full form, including wall time) to path.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: manifest marshal: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest parses a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: bad manifest %s: %w", path, err)
	}
	return &m, nil
}

// HashBytes is 64-bit FNV-1a over a byte slice — the registry-independent
// content hash used for config hashes and result fingerprints.
func HashBytes(data []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// HashStrings folds a sequence of strings (with separators, so ["ab","c"]
// and ["a","bc"] differ) into a 64-bit content hash.
func HashStrings(parts ...string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, p := range parts {
		for _, b := range []byte(p) {
			h ^= uint64(b)
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	return h
}
