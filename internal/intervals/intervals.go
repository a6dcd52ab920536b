// Package intervals provides a coalescing set of half-open byte ranges.
// Controllers use it to track inconsistent (dirty) extents per mirrored
// pair and to chunk destaging work.
//
// All mutators work in place on the set's backing array (see DESIGN §11):
// Add and Remove shift spans with memmove-style copies instead of
// rebuilding the slice, and a whole-span PopFirst just advances the start
// of the live window, leaving slack at the front of the array. Growth
// slides the live spans back over that slack before it would reallocate,
// so steady-state mutation performs no allocations once the backing array
// has reached the set's high-water span count.
package intervals

import (
	"fmt"
	"sort"
)

// Span is a half-open range [Start, End).
type Span struct {
	Start, End int64
}

// Len returns the span length.
func (s Span) Len() int64 { return s.End - s.Start }

// Set is a sorted, coalesced collection of non-overlapping spans. The zero
// value is an empty set ready for use.
type Set struct {
	// spans is the live window: a re-slice of base's backing array that
	// whole-span pops advance, so cap(base)-cap(spans) slots of slack sit
	// in front of it.
	spans []Span
	base  []Span // len 0, cap of the whole backing array
	total int64  // cached sum of span lengths, maintained by every mutator
}

// grow extends the live window by one slot at its end. When the window
// has reached the end of the backing array but pops have left slack at its
// front, the live spans slide back to the start of the array first, so the
// capacity is reused instead of leaked behind the re-slice. The new slot
// holds stale data; both callers overwrite it.
func (s *Set) grow() {
	if n := len(s.spans); n < cap(s.spans) {
		s.spans = s.spans[:n+1]
		return
	}
	if cap(s.base) > cap(s.spans) {
		s.spans = s.base[:copy(s.base[:len(s.spans)], s.spans)+1]
		return
	}
	s.spans = append(s.spans, Span{}) // no slack anywhere: reallocate
	s.base = s.spans[:0]
}

// Add inserts [start, end), merging with any overlapping or adjacent spans.
// Empty or inverted ranges are ignored.
func (s *Set) Add(start, end int64) {
	if end <= start {
		return
	}
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].End >= start })
	j := i
	var absorbed int64
	for j < len(s.spans) && s.spans[j].Start <= end {
		absorbed += s.spans[j].Len()
		if s.spans[j].Start < start {
			start = s.spans[j].Start
		}
		if s.spans[j].End > end {
			end = s.spans[j].End
		}
		j++
	}
	merged := Span{Start: start, End: end}
	s.total += merged.Len() - absorbed
	if i == j {
		// Pure insertion: open a hole at i.
		s.grow()
		copy(s.spans[i+1:], s.spans[i:])
		s.spans[i] = merged
		return
	}
	// spans[i:j] collapse into one; close the leftover hole in place.
	s.spans[i] = merged
	if j > i+1 {
		n := copy(s.spans[i+1:], s.spans[j:])
		s.spans = s.spans[:i+1+n]
	}
}

// Remove deletes [start, end) from the set, splitting spans as needed. When
// the range does not overlap the set it returns without touching anything.
func (s *Set) Remove(start, end int64) {
	if end <= start || len(s.spans) == 0 {
		return
	}
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].End > start })
	if i == len(s.spans) || s.spans[i].Start >= end {
		return // no overlap
	}
	j := i
	for j < len(s.spans) && s.spans[j].Start < end {
		lo, hi := max(s.spans[j].Start, start), min(s.spans[j].End, end)
		s.total -= hi - lo
		j++
	}
	// spans[i:j] overlap the removed range; at most the first leaves a left
	// remainder and the last a right remainder.
	var rem [2]Span
	keep := 0
	if first := s.spans[i]; first.Start < start {
		rem[keep] = Span{Start: first.Start, End: start}
		keep++
	}
	if last := s.spans[j-1]; last.End > end {
		rem[keep] = Span{Start: end, End: last.End}
		keep++
	}
	switch delta := keep - (j - i); {
	case delta < 0:
		copy(s.spans[i+keep:], s.spans[j:])
		s.spans = s.spans[:len(s.spans)+delta]
	case delta > 0:
		// A removal strictly inside one span splits it: grow by one and
		// shift the suffix up.
		s.grow()
		copy(s.spans[j+1:], s.spans[j:len(s.spans)-1])
	}
	for k := 0; k < keep; k++ {
		s.spans[i+k] = rem[k]
	}
}

// Contains reports whether [start, end) is fully covered by the set.
func (s *Set) Contains(start, end int64) bool {
	if end <= start {
		return true
	}
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].End > start })
	return i < len(s.spans) && s.spans[i].Start <= start && s.spans[i].End >= end
}

// Overlaps reports whether any byte of [start, end) is in the set.
func (s *Set) Overlaps(start, end int64) bool {
	if end <= start {
		return false
	}
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].End > start })
	return i < len(s.spans) && s.spans[i].Start < end
}

// Total returns the number of bytes covered. It is O(1): controllers and
// the sanitizer read it on hot paths (per-event dirty-byte counters).
func (s *Set) Total() int64 { return s.total }

// Empty reports whether the set covers nothing.
func (s *Set) Empty() bool { return len(s.spans) == 0 }

// Count returns the number of disjoint spans.
func (s *Set) Count() int { return len(s.spans) }

// At returns the i-th span in ascending order, 0 <= i < Count(). Together
// with Count it lets hot paths iterate without the copy Spans() makes.
func (s *Set) At(i int) Span { return s.spans[i] }

// Spans returns a copy of the coalesced spans in ascending order. Hot paths
// should iterate with Count/At instead.
func (s *Set) Spans() []Span {
	out := make([]Span, len(s.spans))
	copy(out, s.spans)
	return out
}

// Clear removes all spans.
func (s *Set) Clear() {
	s.spans = s.base
	s.total = 0
}

// PopFirst removes and returns up to max bytes from the lowest span,
// which is how destagers chunk sequential work. It reports false when the
// set is empty. A whole-span pop is O(1): it advances the start of the
// live window, and the next growth reclaims the slack (see grow). A pop
// that empties the set moves the window back to the start of the array.
func (s *Set) PopFirst(max int64) (Span, bool) {
	if len(s.spans) == 0 || max <= 0 {
		return Span{}, false
	}
	sp := s.spans[0]
	if sp.Len() <= max {
		if s.spans = s.spans[1:]; len(s.spans) == 0 {
			s.spans = s.base
		}
		s.total -= sp.Len()
		return sp, true
	}
	taken := Span{Start: sp.Start, End: sp.Start + max}
	s.spans[0].Start = taken.End
	s.total -= taken.Len()
	return taken, true
}

// CheckInvariants verifies internal ordering and coalescing; it is used by
// property tests.
func (s *Set) CheckInvariants() error {
	if cap(s.spans) > cap(s.base) {
		return fmt.Errorf("intervals: live window (cap %d) outside its backing array (cap %d)",
			cap(s.spans), cap(s.base))
	}
	var sum int64
	for i, sp := range s.spans {
		if sp.End <= sp.Start {
			return fmt.Errorf("intervals: span %d degenerate: %+v", i, sp)
		}
		if i > 0 && s.spans[i-1].End >= sp.Start {
			return fmt.Errorf("intervals: spans %d,%d not coalesced: %+v %+v",
				i-1, i, s.spans[i-1], sp)
		}
		sum += sp.Len()
	}
	if sum != s.total {
		return fmt.Errorf("intervals: cached total %d != span sum %d", s.total, sum)
	}
	return nil
}
