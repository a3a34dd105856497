package experiments

// Shared cache warmups. The mechanism lives in internal/warm (it is also
// the design-space search's per-candidate warm-restore path); these
// wrappers keep the experiments-facing names and wire the Scale's warmup
// budget through. See the warm package comment for the sharing contract.

import (
	"context"

	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/warm"
)

// SetWarmupSharing toggles checkpoint-based warmup sharing (the
// -nowarmshare flag of cmd/experiments). Output is identical either way;
// off means every run replays its own warmup trace.
func SetWarmupSharing(on bool) { warm.SetSharing(on) }

// WarmupSharingStats returns how many runs restored a shared warm
// checkpoint and how many fell back to a direct warmup.
func WarmupSharingStats() (restored, fellBack int64) { return warm.Stats() }

// warmKey addresses a shared warm checkpoint (see warm.Key).
func warmKey(bench string, n, entries, lineBytes int, prefetch bool) string {
	return warm.Key(bench, n, entries, lineBytes, prefetch)
}

// warmSystem brings the freshly built s to its post-warmup state, via a
// shared checkpoint when sharing is enabled and applicable. Equivalent to
// s.Warmup(ctx, sc.CMPWarmupEntries) bit for bit.
func warmSystem(ctx context.Context, s *cmp.System, l core.Layout, bench string, sc Scale) error {
	return warm.System(ctx, s, l, bench, sc.CMPWarmupEntries)
}
