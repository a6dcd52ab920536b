package intervals

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddCoalesceAdjacent(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(10, 20)
	if s.Count() != 1 {
		t.Fatalf("adjacent spans not merged: %+v", s.Spans())
	}
	if s.Total() != 20 {
		t.Fatalf("Total = %d, want 20", s.Total())
	}
}

func TestAddCoalesceOverlap(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(30, 40)
	s.Add(5, 35)
	if s.Count() != 1 || s.Total() != 40 {
		t.Fatalf("overlap merge wrong: %+v", s.Spans())
	}
}

func TestAddDisjoint(t *testing.T) {
	var s Set
	s.Add(100, 200)
	s.Add(0, 50)
	s.Add(300, 400)
	sp := s.Spans()
	if len(sp) != 3 || sp[0].Start != 0 || sp[1].Start != 100 || sp[2].Start != 300 {
		t.Fatalf("spans not sorted/disjoint: %+v", sp)
	}
}

func TestAddIgnoresEmpty(t *testing.T) {
	var s Set
	s.Add(10, 10)
	s.Add(20, 5)
	if !s.Empty() {
		t.Fatalf("degenerate adds changed the set: %+v", s.Spans())
	}
}

func TestRemoveSplit(t *testing.T) {
	var s Set
	s.Add(0, 100)
	s.Remove(40, 60)
	sp := s.Spans()
	if len(sp) != 2 || sp[0] != (Span{0, 40}) || sp[1] != (Span{60, 100}) {
		t.Fatalf("split wrong: %+v", sp)
	}
	if s.Total() != 80 {
		t.Fatalf("Total = %d, want 80", s.Total())
	}
}

func TestRemoveEdges(t *testing.T) {
	var s Set
	s.Add(0, 100)
	s.Remove(0, 10)   // trim head
	s.Remove(90, 200) // trim tail beyond end
	sp := s.Spans()
	if len(sp) != 1 || sp[0] != (Span{10, 90}) {
		t.Fatalf("edge trims wrong: %+v", sp)
	}
	s.Remove(0, 200) // remove everything
	if !s.Empty() {
		t.Fatal("set not emptied")
	}
}

func TestContainsOverlaps(t *testing.T) {
	var s Set
	s.Add(10, 20)
	s.Add(30, 40)
	cases := []struct {
		start, end         int64
		contains, overlaps bool
	}{
		{10, 20, true, true},
		{12, 18, true, true},
		{10, 21, false, true},
		{19, 31, false, true},
		{20, 30, false, false},
		{0, 10, false, false},
		{40, 50, false, false},
		{15, 15, true, false}, // empty range
	}
	for _, c := range cases {
		if got := s.Contains(c.start, c.end); got != c.contains {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.start, c.end, got, c.contains)
		}
		if got := s.Overlaps(c.start, c.end); got != c.overlaps {
			t.Errorf("Overlaps(%d,%d) = %v, want %v", c.start, c.end, got, c.overlaps)
		}
	}
}

func TestPopFirst(t *testing.T) {
	var s Set
	s.Add(0, 100)
	s.Add(200, 250)
	sp, ok := s.PopFirst(40)
	if !ok || sp != (Span{0, 40}) {
		t.Fatalf("PopFirst = %+v %v", sp, ok)
	}
	sp, ok = s.PopFirst(1000)
	if !ok || sp != (Span{40, 100}) {
		t.Fatalf("PopFirst = %+v %v", sp, ok)
	}
	sp, ok = s.PopFirst(1000)
	if !ok || sp != (Span{200, 250}) {
		t.Fatalf("PopFirst = %+v %v", sp, ok)
	}
	if _, ok := s.PopFirst(10); ok {
		t.Fatal("PopFirst on empty set returned ok")
	}
}

// TestPopFirstWindow pins the O(1) whole-span pop: each pop advances the
// live window over the backing array, and a pop that empties the set, like
// Clear, moves the window back to the start of the array.
func TestPopFirstWindow(t *testing.T) {
	var s Set
	for i := int64(0); i < 4; i++ {
		s.Add(i*20, i*20+10)
	}
	full := cap(s.base)
	for i := 1; i <= 3; i++ {
		s.PopFirst(100)
		if got := cap(s.base) - cap(s.spans); got != i {
			t.Fatalf("after %d pops the window starts at slot %d", i, got)
		}
	}
	if sp, ok := s.PopFirst(100); !ok || sp != (Span{60, 70}) || !s.Empty() {
		t.Fatalf("last pop = %+v %v, set %v", sp, ok, s.Spans())
	}
	if cap(s.spans) != full || cap(s.base) != full {
		t.Fatalf("emptying pop left the window at slot %d of %d", full-cap(s.spans), full)
	}
	s.Add(0, 10)
	s.Add(20, 30)
	s.PopFirst(100)
	s.Clear()
	if cap(s.spans) != full {
		t.Fatalf("Clear left the window at slot %d of %d", full-cap(s.spans), full)
	}
}

func TestClear(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Clear()
	if !s.Empty() || s.Total() != 0 {
		t.Fatal("Clear did not empty the set")
	}
}

// Property: the set behaves identically to a naive byte map under random
// add/remove sequences, and invariants always hold.
func TestQuickMatchesNaiveModel(t *testing.T) {
	const universe = 512
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		model := make([]bool, universe)
		for i := 0; i < int(steps); i++ {
			a := rng.Int63n(universe)
			b := rng.Int63n(universe)
			if a > b {
				a, b = b, a
			}
			if rng.Intn(3) == 0 {
				s.Remove(a, b)
				for k := a; k < b; k++ {
					model[k] = false
				}
			} else {
				s.Add(a, b)
				for k := a; k < b; k++ {
					model[k] = true
				}
			}
			if err := s.CheckInvariants(); err != nil {
				return false
			}
		}
		var want int64
		for _, v := range model {
			if v {
				want++
			}
		}
		if s.Total() != want {
			return false
		}
		// Spot-check membership at every byte.
		for k := int64(0); k < universe; k++ {
			if s.Overlaps(k, k+1) != model[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeatedly popping drains exactly Total() bytes in order.
func TestQuickPopDrains(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		for i := 0; i < int(n%20)+1; i++ {
			a := rng.Int63n(10000)
			s.Add(a, a+rng.Int63n(500)+1)
		}
		want := s.Total()
		var got, prevEnd int64
		for {
			sp, ok := s.PopFirst(rng.Int63n(200) + 1)
			if !ok {
				break
			}
			if sp.Start < prevEnd {
				return false // must come out in ascending order
			}
			prevEnd = sp.End
			got += sp.Len()
		}
		return got == want && s.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
