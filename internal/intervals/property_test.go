package intervals

import (
	"math/rand"
	"testing"
)

// naiveSet is the reference implementation for the property tests: a plain
// coverage bitmap over a small universe. Every operation is written for
// obviousness, not speed. The bitmap extends past the generation range so
// ranges straddling the universe edge are still tracked exactly.
type naiveSet struct {
	covered [maxAddr]bool
}

const (
	universe = 512           // generated starts are in [0, universe+20)
	maxAddr  = universe + 60 // bitmap bound: start < universe+20, len < 40
)

func (n *naiveSet) add(start, end int64)    { n.set(start, end, true) }
func (n *naiveSet) remove(start, end int64) { n.set(start, end, false) }

func (n *naiveSet) set(start, end int64, v bool) {
	if end <= start {
		return
	}
	for i := clamp(start); i < clamp(end); i++ {
		n.covered[i] = v
	}
}

func clamp(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > maxAddr {
		return maxAddr
	}
	return v
}

func (n *naiveSet) total() int64 {
	var t int64
	for _, c := range n.covered {
		if c {
			t++
		}
	}
	return t
}

func (n *naiveSet) contains(start, end int64) bool {
	if end <= start {
		return true
	}
	for i := start; i < end; i++ {
		if i < 0 || i >= maxAddr || !n.covered[i] {
			return false
		}
	}
	return true
}

func (n *naiveSet) overlaps(start, end int64) bool {
	for i := clamp(start); i < clamp(end); i++ {
		if n.covered[i] {
			return true
		}
	}
	return false
}

// spans reconstructs the coalesced span list from the bitmap.
func (n *naiveSet) spans() []Span {
	var out []Span
	i := int64(0)
	for i < maxAddr {
		if !n.covered[i] {
			i++
			continue
		}
		j := i
		for j < maxAddr && n.covered[j] {
			j++
		}
		out = append(out, Span{Start: i, End: j})
		i = j
	}
	return out
}

// popFirst mirrors Set.PopFirst against the bitmap.
func (n *naiveSet) popFirst(max int64) (Span, bool) {
	sps := n.spans()
	if len(sps) == 0 || max <= 0 {
		return Span{}, false
	}
	sp := sps[0]
	if sp.Len() > max {
		sp.End = sp.Start + max
	}
	n.remove(sp.Start, sp.End)
	return sp, true
}

// TestSetMatchesNaiveReference fuzzes the in-place Set against the bitmap
// reference with rapid add/remove/pop loops, checking CheckInvariants and
// full span-list agreement after every mutation. Each op mix weights
// add, remove, pop and query; "drain-while-refilling" is the RoLo-P/R
// copier pattern, where the dirty set is drained by mostly whole-span pops
// while writes keep landing in it, so the PopFirst window and its lazy
// compaction interleave with inserts and splits on both sides of it.
func TestSetMatchesNaiveReference(t *testing.T) {
	mixes := []struct {
		name                   string
		add, remove, pop, look int
		popMax                 int // pops take up to rng.Intn(popMax) bytes
	}{
		{"mixed", 4, 3, 1, 2, 30},
		{"pop-heavy", 3, 2, 4, 1, 60},
		{"drain-while-refilling", 3, 1, 6, 0, 1 << 10},
	}
	for _, mix := range mixes {
		t.Run(mix.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				checkAgainstReference(t, seed, mix.add, mix.remove, mix.pop, mix.look, mix.popMax)
			}
		})
	}
}

func checkAgainstReference(t *testing.T, seed int64, add, remove, pop, look, popMax int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var s Set
	var ref naiveSet
	for op := 0; op < 2000; op++ {
		start := int64(rng.Intn(universe + 20)) // occasionally out past the edge
		end := start + int64(rng.Intn(40))
		switch k := rng.Intn(add + remove + pop + look); {
		case k < add:
			s.Add(start, end)
			ref.add(start, end)
		case k < add+remove:
			s.Remove(start, end)
			ref.remove(start, end)
		case k < add+remove+pop:
			max := int64(rng.Intn(popMax))
			got, gotOK := s.PopFirst(max)
			want, wantOK := ref.popFirst(max)
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d op %d: PopFirst(%d) = %+v,%v, want %+v,%v",
					seed, op, max, got, gotOK, want, wantOK)
			}
		case rng.Intn(2) == 0:
			if got, want := s.Contains(start, end), ref.contains(start, end); got != want {
				t.Fatalf("seed %d op %d: Contains(%d,%d) = %v, want %v", seed, op, start, end, got, want)
			}
		default:
			if got, want := s.Overlaps(start, end), ref.overlaps(start, end); got != want {
				t.Fatalf("seed %d op %d: Overlaps(%d,%d) = %v, want %v", seed, op, start, end, got, want)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, op, err)
		}
		if got, want := s.Total(), ref.total(); got != want {
			t.Fatalf("seed %d op %d: Total() = %d, want %d", seed, op, got, want)
		}
		gotSpans, wantSpans := s.Spans(), ref.spans()
		if len(gotSpans) != len(wantSpans) {
			t.Fatalf("seed %d op %d: %d spans %v, want %d spans %v",
				seed, op, len(gotSpans), gotSpans, len(wantSpans), wantSpans)
		}
		for i := range gotSpans {
			if gotSpans[i] != wantSpans[i] {
				t.Fatalf("seed %d op %d: span %d = %+v, want %+v", seed, op, i, gotSpans[i], wantSpans[i])
			}
		}
	}
}

// TestRemoveNoOverlapDoesNotMutate pins the early-return: removing a range
// that misses the set must leave the backing slice untouched.
func TestRemoveNoOverlapDoesNotMutate(t *testing.T) {
	var s Set
	s.Add(100, 200)
	s.Add(300, 400)
	for _, r := range [][2]int64{{0, 100}, {200, 300}, {400, 500}, {250, 260}, {50, 20}} {
		s.Remove(r[0], r[1])
	}
	if s.Count() != 2 || s.At(0) != (Span{100, 200}) || s.At(1) != (Span{300, 400}) {
		t.Fatalf("non-overlapping Remove mutated the set: %v", s.Spans())
	}
}

// TestSetSteadyStateZeroAllocs pins the 0 allocs/op contract for Add,
// Remove and PopFirst once the backing array has reached its high-water
// span count.
func TestSetSteadyStateZeroAllocs(t *testing.T) {
	var s Set
	// Warm the backing array to its high-water mark for the loop below.
	for i := int64(0); i < 32; i++ {
		s.Add(i*20, i*20+10)
	}
	s.Clear()

	if n := testing.AllocsPerRun(200, func() {
		s.Add(100, 200)     // insert
		s.Add(150, 250)     // extend
		s.Add(400, 500)     // second span
		s.Add(200, 400)     // merge both
		s.Remove(150, 450)  // split-free shrink from the middle
		s.Remove(0, 600)    // drop everything
		s.Add(0, 100)       //
		s.Remove(20, 30)    // split one span into two
		s.PopFirst(15)      // partial pop
		s.PopFirst(1 << 20) // whole-span pop
		s.PopFirst(1 << 20) // drain
		if !s.Empty() {
			t.Fatal("set not drained")
		}
	}); n != 0 {
		t.Errorf("steady-state Add/Remove/PopFirst: %v allocs/op, want 0", n)
	}

	// Pop-then-grow: fill the array to capacity, pop whole spans off the
	// front so the live window ends at the array's end, then insert past
	// the tail. The insert must slide the window back over the front slack
	// instead of reallocating.
	full := cap(s.base)
	compacted := 0
	if n := testing.AllocsPerRun(200, func() {
		s.Clear()
		for i := 0; i < full; i++ {
			s.Add(int64(i)*20, int64(i)*20+10)
		}
		s.PopFirst(1 << 20)
		s.PopFirst(1 << 20)
		if len(s.spans) == cap(s.spans) && cap(s.base) > cap(s.spans) {
			compacted++
		}
		s.Add(int64(full)*20, int64(full)*20+10)
		s.Add(int64(full+1)*20, int64(full+1)*20+10)
	}); n != 0 {
		t.Errorf("pop-then-grow: %v allocs/op, want 0", n)
	}
	if compacted == 0 {
		t.Fatal("pop-then-grow never reached the compaction path")
	}
	if cap(s.base) != full || s.Count() != full || s.At(0).Start != 40 {
		t.Fatalf("after compaction: cap %d count %d first %+v, want cap %d count %d first at 40",
			cap(s.base), s.Count(), s.At(0), full, full)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
