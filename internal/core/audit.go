package core

import (
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/logspace"
)

// This file is the RoloSan integration for the RoLo-P/R and RoLo-E
// controllers: the audited mutation helpers every log-space and dirty-set
// change must route through (the invariantguard analyzer enforces this),
// and the Source snapshots the sanitizer's checkers consume. The audit
// handle is nil unless a sanitizer is attached, and every helper is
// nil-safe, so the audited path costs nothing in normal runs.

var (
	_ invariant.Source     = (*RoLo)(nil)
	_ invariant.Attachable = (*RoLo)(nil)
	_ invariant.Source     = (*RoLoE)(nil)
	_ invariant.Attachable = (*RoLoE)(nil)
)

// SetSanitizer implements invariant.Attachable.
func (r *RoLo) SetSanitizer(a *invariant.Audit) { r.san = a }

// logAlloc reserves n log bytes tagged for pair tag on sp.
//
// rolosan:audited — notifies the sanitizer ledger on success.
func (r *RoLo) logAlloc(sp *logspace.Space, n int64, tag int) (logspace.Alloc, bool) {
	a, ok := sp.Alloc(n, tag)
	if ok {
		r.san.Alloc(sp, tag, n)
	}
	return a, ok
}

// releaseTag reclaims every extent tagged for pair tag on sp; legal only
// once the pair's destage (or rebuild) has drained its dirty set.
//
// rolosan:audited — the sanitizer checks reclamation safety on the spot.
func (r *RoLo) releaseTag(sp *logspace.Space, tag int) int64 {
	freed := sp.ReleaseTag(tag)
	r.san.Release(sp, tag, freed)
	return freed
}

// resetSpace drops every extent on sp — the logger-failure path: the data
// the extents protected must still be covered by healthy primaries.
//
// rolosan:audited — the sanitizer checks reset safety on the spot.
func (r *RoLo) resetSpace(sp *logspace.Space) {
	sp.Reset()
	r.san.Reset(sp)
}

// cleanDirty removes [start, end) from pair p's dirty set: an in-place
// write (or completed copy) made the mirror copy current again.
//
// rolosan:audited
func (r *RoLo) cleanDirty(p int, start, end int64) {
	r.dirty[p].Remove(start, end)
}

// clearDirty empties pair p's dirty set after a rebuild made the mirror
// fully current.
//
// rolosan:audited
func (r *RoLo) clearDirty(p int) {
	r.dirty[p].Clear()
}

// SanitizerCounters implements invariant.Source.
func (r *RoLo) SanitizerCounters() invariant.Counters {
	used, _, backlog := r.TelemetryGauges()
	return invariant.Counters{
		Rotations:  r.rotations,
		DirtyBytes: backlog,
		LogUsed:    used,
	}
}

// SanitizerState implements invariant.Source. RoLo-P/R are primary-backed:
// a dirty span's current data lives on its (healthy) primary, and the log
// copies are the redundancy protecting it.
func (r *RoLo) SanitizerState() invariant.State {
	pairs := r.arr.Geom.Pairs
	st := invariant.State{
		Scheme:           r.flavor.String(),
		Pairs:            pairs,
		Spaces:           append([]*logspace.Space(nil), r.spaces...),
		DirtyBytes:       make([]int64, pairs),
		LogByPair:        make([]int64, pairs),
		LogPrimaryBacked: true,
		PrimaryOK:        make([]bool, pairs),
		MirrorOK:         make([]bool, pairs),
		Counters:         r.SanitizerCounters(),
	}
	for p := 0; p < pairs; p++ {
		st.DirtyBytes[p] = r.dirty[p].Total()
		st.PrimaryOK[p] = !r.arr.Primaries[p].Failed()
		st.MirrorOK[p] = !r.arr.Mirrors[p].Failed()
	}
	for _, sp := range r.spaces {
		st.LogTotal += sp.UsedBytes()
		for _, tag := range sp.Tags() {
			if tag >= 0 && tag < pairs {
				st.LogByPair[tag] += sp.TagBytes(tag)
			}
		}
	}
	return st
}

// SetSanitizer implements invariant.Attachable.
func (e *RoLoE) SetSanitizer(a *invariant.Audit) { e.san = a }

// logAlloc reserves n log bytes tagged for pair tag on sp.
//
// rolosan:audited — notifies the sanitizer ledger on success.
func (e *RoLoE) logAlloc(sp *logspace.Space, n int64, tag int) (logspace.Alloc, bool) {
	a, ok := sp.Alloc(n, tag)
	if ok {
		e.san.Alloc(sp, tag, n)
	}
	return a, ok
}

// resetSpace drops every extent on sp after a centralized destage applied
// the logged data in place; legal only with no dirty bytes outstanding.
//
// rolosan:audited — the sanitizer checks reset safety on the spot.
func (e *RoLoE) resetSpace(sp *logspace.Space) {
	sp.Reset()
	e.san.Reset(sp)
}

// markDirty records that pair p's only current copy of [start, end) now
// lives in the on-duty log.
//
// rolosan:audited
func (e *RoLoE) markDirty(p int, start, end int64) {
	e.dirty[p].Add(start, end)
}

// cleanDirty removes [start, end) from pair p's dirty set after an
// in-place write superseded the logged copy.
//
// rolosan:audited
func (e *RoLoE) cleanDirty(p int, start, end int64) {
	e.dirty[p].Remove(start, end)
}

// takeDirty hands pair p's dirty set to the centralized destage as its work
// set and leaves p the spare the previous destage drained: a destage starts
// only after the last one's copiers all drained, so the spare is empty.
//
// rolosan:audited
func (e *RoLoE) takeDirty(p int) *intervals.Set {
	e.dirty[p], e.spare[p] = e.spare[p], e.dirty[p]
	return &e.spare[p]
}

// SanitizerCounters implements invariant.Source.
func (e *RoLoE) SanitizerCounters() invariant.Counters {
	used, _, backlog := e.TelemetryGauges()
	return invariant.Counters{
		Rotations:  e.rotations,
		Destages:   e.destages,
		DirtyBytes: backlog,
		LogUsed:    used,
	}
}

// SanitizerState implements invariant.Source. RoLo-E is not
// primary-backed: for a dirty span the log holds the only current copy,
// so the log must cover every dirty byte regardless of disk health.
func (e *RoLoE) SanitizerState() invariant.State {
	pairs := e.arr.Geom.Pairs
	st := invariant.State{
		Scheme:           "RoLo-E",
		Pairs:            pairs,
		Spaces:           append([]*logspace.Space(nil), e.spaces...),
		DirtyBytes:       make([]int64, pairs),
		LogByPair:        make([]int64, pairs),
		LogPrimaryBacked: false,
		Counters:         e.SanitizerCounters(),
	}
	for p := 0; p < pairs; p++ {
		st.DirtyBytes[p] = e.dirty[p].Total()
	}
	for _, sp := range e.spaces {
		st.LogTotal += sp.UsedBytes()
		for _, tag := range sp.Tags() {
			if tag >= 0 && tag < pairs {
				st.LogByPair[tag] += sp.TagBytes(tag)
			}
		}
	}
	return st
}
