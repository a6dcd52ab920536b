// Package logspace manages the logging region of a disk: sequential append
// allocation for logged writes, and tag-based invalidation so that when the
// destaging of a mirrored pair completes, every stale log extent written on
// behalf of that pair — on any logger — can be reclaimed at once.
//
// This implements Section III-E of the RoLo paper: the logger region is
// tracked as used and unused region lists; reclaimed regions coalesce back
// into the unused list so the logger is ready for its next on-duty term.
package logspace

import (
	"fmt"
	"math"
	"slices"

	"github.com/rolo-storage/rolo/internal/intervals"
)

// Alloc is one allocated extent within the logging region.
type Alloc struct {
	Offset int64
	Length int64
}

// Space is the allocator for one disk's logging region. Offsets are
// relative to the start of the region; callers translate them to LBAs.
type Space struct {
	addrSpace int64         // immutable size of the region's address range
	donated   int64         // bytes permanently given to the data region
	donations intervals.Set // the address ranges those bytes came from
	free      intervals.Set
	used      map[int]*intervals.Set // tag -> extents
	usedBy    int64
	// cursor is the append head: allocation is next-fit from here with
	// wrap-around, so consecutive log writes stay sequential on disk even
	// after reclamation has opened holes behind the head (the region
	// behaves as the circular log of Section III-A).
	cursor int64

	// Scratch buffers reused by CheckInvariants: the sanitizer sweeps call
	// it on every log region periodically during checked runs, and the
	// ownership merge would otherwise allocate on each sweep (DESIGN §11).
	chkScratch []ownerCursor
	tagScratch []int
}

// New returns a Space over a region of the given size.
func New(capacity int64) (*Space, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("logspace: non-positive capacity %d", capacity)
	}
	s := &Space{addrSpace: capacity, used: make(map[int]*intervals.Set)}
	s.free.Add(0, capacity)
	return s, nil
}

// Capacity returns the logging capacity in bytes (the region size minus any
// space donated to the data region).
func (s *Space) Capacity() int64 { return s.addrSpace - s.donated }

// FreeBytes returns the number of unallocated bytes.
func (s *Space) FreeBytes() int64 { return s.Capacity() - s.usedBy }

// UsedBytes returns the number of allocated bytes.
func (s *Space) UsedBytes() int64 { return s.usedBy }

// FreeFraction returns FreeBytes/Capacity.
func (s *Space) FreeFraction() float64 {
	if c := s.Capacity(); c > 0 {
		return float64(s.FreeBytes()) / float64(c)
	}
	return 0
}

// LargestFree returns the size of the largest contiguous free extent.
func (s *Space) LargestFree() int64 {
	var max int64
	for i := 0; i < s.free.Count(); i++ {
		if n := s.free.At(i).Len(); n > max {
			max = n
		}
	}
	return max
}

// Alloc reserves n contiguous bytes tagged with tag, next-fit from the
// append cursor with wrap-around. Consecutive allocations are therefore
// address-sequential whenever space permits, which is what makes on-duty
// logging seek-free. It reports false when no free extent is large enough.
func (s *Space) Alloc(n int64, tag int) (Alloc, bool) {
	if n <= 0 {
		return Alloc{}, false
	}
	// First pass: at or after the cursor (a true append when the cursor
	// sits inside a free span). Indexed iteration (Count/At) avoids the
	// snapshot copy Spans() would make on this per-write path; take is
	// only called once a span is chosen, after iteration ends.
	for i := 0; i < s.free.Count(); i++ {
		sp := s.free.At(i)
		if sp.End <= s.cursor {
			continue
		}
		start := sp.Start
		if start < s.cursor {
			start = s.cursor
		}
		if sp.End-start >= n {
			return s.take(start, n, tag), true
		}
	}
	// Wrap around: restart from the lowest free extent that fits.
	for i := 0; i < s.free.Count(); i++ {
		if sp := s.free.At(i); sp.Len() >= n {
			return s.take(sp.Start, n, tag), true
		}
	}
	return Alloc{}, false
}

func (s *Space) take(start, n int64, tag int) Alloc {
	a := Alloc{Offset: start, Length: n}
	s.free.Remove(start, start+n)
	set, ok := s.used[tag]
	if !ok {
		set = &intervals.Set{}
		s.used[tag] = set
	}
	set.Add(start, start+n)
	s.usedBy += n
	s.cursor = start + n
	return a
}

// ReleaseTag invalidates every extent allocated under tag and returns the
// number of bytes reclaimed. This is the proactive reclamation step that
// follows a completed destage.
func (s *Space) ReleaseTag(tag int) int64 {
	set, ok := s.used[tag]
	if !ok {
		return 0
	}
	var freed int64
	for i := 0; i < set.Count(); i++ {
		sp := set.At(i)
		s.free.Add(sp.Start, sp.End)
		freed += sp.Len()
	}
	delete(s.used, tag)
	s.usedBy -= freed
	return freed
}

// TagBytes returns the bytes currently allocated under tag.
func (s *Space) TagBytes(tag int) int64 {
	set, ok := s.used[tag]
	if !ok {
		return 0
	}
	return set.Total()
}

// Tags returns the tags with live allocations, in ascending order so
// callers iterate deterministically.
func (s *Space) Tags() []int {
	out := make([]int, 0, len(s.used))
	for t := range s.used {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Reset releases all allocations, returning every non-donated byte to the
// free list: the complement of the donations, rebuilt in one ascending sweep.
func (s *Space) Reset() {
	s.free.Clear()
	var at int64
	for i := 0; i < s.donations.Count(); i++ {
		d := s.donations.At(i)
		s.free.Add(at, d.Start)
		at = d.End
	}
	s.free.Add(at, s.addrSpace)
	clear(s.used)
	s.usedBy = 0
	s.cursor = 0
}

// Shrink permanently donates n free bytes to the data region (the paper's
// data-region expansion: an unused logger region is freed from the unused
// region list when the data region fills). Donations come off the top of
// the free list. It reports false if less than n bytes are free.
func (s *Space) Shrink(n int64) bool {
	if n <= 0 || n > s.FreeBytes() {
		return false
	}
	remaining := n // walking down keeps lower indices valid as spans go
	for i := s.free.Count() - 1; i >= 0 && remaining > 0; i-- {
		sp := s.free.At(i)
		take := min(sp.Len(), remaining)
		s.free.Remove(sp.End-take, sp.End)
		s.donations.Add(sp.End-take, sp.End)
		remaining -= take
	}
	s.donated += n
	return true
}

// ownerCursor walks one owner's spans in the CheckInvariants merge.
type ownerCursor struct {
	set  *intervals.Set
	next int            // index of the span after head
	head intervals.Span // next unvisited span; Start is math.MaxInt64 once done
	name string         // "free" or "donated"; empty for a tag's cursor
	tag  int
}

func (c *ownerCursor) owner() string {
	if c.name != "" {
		return c.name
	}
	return fmt.Sprintf("tag %d", c.tag)
}

func (c *ownerCursor) advance() {
	if c.next == c.set.Count() {
		c.head.Start = math.MaxInt64
		return
	}
	c.head = c.set.At(c.next)
	c.next++
}

// CheckInvariants validates the allocator's bookkeeping: free, used and
// donated extents are disjoint, within bounds, and tile the region exactly.
func (s *Space) CheckInvariants() error {
	if err := s.free.CheckInvariants(); err != nil {
		return err
	}
	if err := s.donations.CheckInvariants(); err != nil {
		return fmt.Errorf("logspace: donations: %w", err)
	}
	if got := s.donations.Total(); got != s.donated {
		return fmt.Errorf("logspace: donated spans cover %d bytes, tracked %d", got, s.donated)
	}
	// Every owner's set is already sorted, so a k-way merge visits all
	// spans in address order and proves mutual disjointness without the
	// sort (or a quadratic intervals.Set build) the periodic sanitizer
	// sweeps would otherwise pay. Both scratch slices are reused.
	tags := s.tagScratch[:0]
	for tag := range s.used {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	s.tagScratch = tags[:0]
	heads := append(s.chkScratch[:0],
		ownerCursor{set: &s.free, name: "free"}, ownerCursor{set: &s.donations, name: "donated"})
	var usedTotal int64
	for _, tag := range tags {
		set := s.used[tag]
		if err := set.CheckInvariants(); err != nil {
			return fmt.Errorf("logspace: tag %d: %w", tag, err)
		}
		usedTotal += set.Total()
		heads = append(heads, ownerCursor{set: set, tag: tag})
	}
	s.chkScratch = heads[:0]
	for i := range heads {
		heads[i].advance()
	}
	var end, total int64
	for {
		// The owner with the lowest next start; ties go to the earliest
		// owner, so the merge order is deterministic.
		c := &heads[0]
		for i := 1; i < len(heads); i++ {
			if heads[i].head.Start < c.head.Start {
				c = &heads[i]
			}
		}
		sp := c.head
		if sp.Start == math.MaxInt64 {
			break
		}
		c.advance()
		if sp.Start < 0 || sp.End > s.addrSpace {
			return fmt.Errorf("logspace: %s span %+v out of bounds", c.owner(), sp)
		}
		if sp.Start < end {
			return fmt.Errorf("logspace: %s span %+v overlaps", c.owner(), sp)
		}
		end = sp.End
		if c.name != "donated" { // donated bytes are not live
			total += sp.Len()
		}
	}
	if usedTotal != s.usedBy {
		return fmt.Errorf("logspace: used accounting %d != tracked %d", usedTotal, s.usedBy)
	}
	if got, want := total, s.addrSpace-s.donated; got != want {
		return fmt.Errorf("logspace: accounted %d of %d live bytes", got, want)
	}
	return nil
}
