package runcache

import "heteronoc/internal/obs"

// Len returns the number of memoized entries (including entries still being
// computed by a concurrent caller).
func Len() int {
	mu.Lock()
	defer mu.Unlock()
	return len(entries)
}

// RegisterMetrics registers the process-global cache counters in reg. The
// counters are atomics, so exposition is safe even while sweeps are
// populating the cache concurrently.
func RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("runcache_hits_total",
		"lookups that found an entry in memory", nil,
		func() float64 { return float64(hits.Load()) })
	reg.RegisterCounter("runcache_misses_total",
		"lookups that missed the memory tier", nil,
		func() float64 { return float64(misses.Load()) })
	reg.RegisterGauge("runcache_entries",
		"memoized run results held in memory", nil,
		func() float64 { return float64(Len()) })
	reg.RegisterGauge("runcache_enabled",
		"1 when lookups are active, 0 when bypassed", nil,
		func() float64 {
			if enabled.Load() {
				return 1
			}
			return 0
		})
	reg.RegisterCounter("runcache_executions_total",
		"recipes that actually ran (no tier satisfied the key)", nil,
		func() float64 { return float64(execs.Load()) })
	reg.RegisterCounter("runcache_disk_hits_total",
		"lookups satisfied from the persistent disk tier", nil,
		func() float64 { return float64(diskHits.Load()) })
	reg.RegisterCounter("runcache_disk_misses_total",
		"disk-tier lookups that found no usable entry", nil,
		func() float64 { return float64(diskMisses.Load()) })
	reg.RegisterCounter("runcache_disk_evictions_total",
		"disk-tier entries evicted to enforce the byte cap", nil,
		func() float64 { return float64(diskEvictions.Load()) })
}
