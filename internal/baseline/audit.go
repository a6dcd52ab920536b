package baseline

import (
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/logspace"
)

// This file is the RoloSan integration for the baseline schemes: GRAID's
// audited mutation helpers (the invariantguard analyzer enforces that all
// log-space and dirty-set changes route through them) and the Source
// snapshots for both baselines. GRAID tags allocations by generation, not
// by pair, so its State carries LogByPair == nil and the sanitizer applies
// the aggregate log-covers-dirt rule instead of the per-pair one.

var (
	_ invariant.Source     = (*GRAID)(nil)
	_ invariant.Attachable = (*GRAID)(nil)
	_ invariant.Source     = (*RAID10)(nil)
)

// SetSanitizer implements invariant.Attachable.
func (g *GRAID) SetSanitizer(a *invariant.Audit) { g.san = a }

// logAlloc reserves n log bytes on the dedicated logger under the current
// generation tag.
//
// rolosan:audited — notifies the sanitizer ledger on success.
func (g *GRAID) logAlloc(n int64) (logspace.Alloc, bool) {
	a, ok := g.logSpace.Alloc(n, g.gen)
	if ok {
		g.san.Alloc(g.logSpace, g.gen, n)
	}
	return a, ok
}

// releaseGen reclaims every extent of a destaged generation; legal only
// once that generation's centralized destage has completed.
//
// rolosan:audited — the sanitizer checks reclamation safety on the spot.
func (g *GRAID) releaseGen(gen int) int64 {
	freed := g.logSpace.ReleaseTag(gen)
	g.san.Release(g.logSpace, gen, freed)
	return freed
}

// resetLog drops the whole log — the log-disk replacement path. The data
// the extents protected is still current on the (always-spinning)
// primaries.
//
// rolosan:audited — the sanitizer checks reset safety on the spot.
func (g *GRAID) resetLog() {
	g.logSpace.Reset()
	g.san.Reset(g.logSpace)
}

// markDirty records that pair p's mirror is stale for [start, end).
//
// rolosan:audited
func (g *GRAID) markDirty(p int, start, end int64) {
	g.dirty[p].Add(start, end)
}

// cleanDirty removes [start, end) from pair p's stale set after a direct
// write landed on both copies.
//
// rolosan:audited
func (g *GRAID) cleanDirty(p int, start, end int64) {
	g.dirty[p].Remove(start, end)
}

// takeDirty hands pair p's stale set to the centralized destage as its work
// set and leaves p the spare the previous destage drained: a destage starts
// only after the last one's copiers all drained, so the spare is empty.
//
// rolosan:audited
func (g *GRAID) takeDirty(p int) *intervals.Set {
	g.dirty[p], g.spare[p] = g.spare[p], g.dirty[p]
	return &g.spare[p]
}

// SanitizerCounters implements invariant.Source.
func (g *GRAID) SanitizerCounters() invariant.Counters {
	used, _, backlog := g.TelemetryGauges()
	return invariant.Counters{
		Destages:   g.destages,
		DirtyBytes: backlog,
		LogUsed:    used,
	}
}

// SanitizerState implements invariant.Source. GRAID is primary-backed
// (primaries never spin down) and generation-tagged: LogByPair is nil, so
// the sanitizer checks the aggregate rule — while the log disk lives, the
// log covers the aggregate mirror-stale volume.
func (g *GRAID) SanitizerState() invariant.State {
	pairs := g.arr.Geom.Pairs
	st := invariant.State{
		Scheme:           "GRAID",
		Pairs:            pairs,
		Spaces:           []*logspace.Space{g.logSpace},
		DirtyBytes:       make([]int64, pairs),
		LogTotal:         g.logSpace.UsedBytes(),
		LogPrimaryBacked: true,
		LogDown:          g.logFailed,
		Counters:         g.SanitizerCounters(),
	}
	for p := 0; p < pairs; p++ {
		st.DirtyBytes[p] = g.dirty[p].Total()
	}
	return st
}

// SanitizerState implements invariant.Source. RAID10 keeps both copies
// current synchronously and has no log, so the snapshot is trivially
// clean; the interesting checks for this baseline live at the disk layer
// (no disk may ever leave ACTIVE/IDLE).
func (c *RAID10) SanitizerState() invariant.State {
	return invariant.State{
		Scheme:           "RAID10",
		Pairs:            c.arr.Geom.Pairs,
		LogPrimaryBacked: true,
	}
}

// SanitizerCounters implements invariant.Source.
func (c *RAID10) SanitizerCounters() invariant.Counters {
	return invariant.Counters{}
}
