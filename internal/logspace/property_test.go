package logspace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/intervals"
)

// referenceDonated reconstructs the donated ranges the way Reset once did:
// everything in [0, addrSpace) that is neither free nor used. Donations only
// ever move bytes out of the free list, so this is exact; it is kept here as
// the oracle for the tracked donation set.
func referenceDonated(s *Space) []intervals.Span {
	var live intervals.Set
	for _, sp := range s.free.Spans() {
		live.Add(sp.Start, sp.End)
	}
	for _, set := range s.used {
		for _, sp := range set.Spans() {
			live.Add(sp.Start, sp.End)
		}
	}
	var donated intervals.Set
	donated.Add(0, s.addrSpace)
	for _, sp := range live.Spans() {
		donated.Remove(sp.Start, sp.End)
	}
	return donated.Spans()
}

// referenceFreeAfterReset is the free list the reconstruction-based Reset
// produced: the whole region minus the reconstructed donations.
func referenceFreeAfterReset(s *Space) []intervals.Span {
	var free intervals.Set
	free.Add(0, s.addrSpace)
	for _, sp := range referenceDonated(s) {
		free.Remove(sp.Start, sp.End)
	}
	return free.Spans()
}

func equalSpans(a, b []intervals.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestResetMatchesReconstruction drives random Alloc/ReleaseTag/Shrink/Reset
// sequences and checks, after every step, that the tracked donation set
// equals the reconstruction and that every Reset leaves exactly the free
// list the reconstruction-based Reset would have.
func TestResetMatchesReconstruction(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := mustSpace(t, 1<<14)
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				s.Alloc(rng.Int63n(512)+1, rng.Intn(6))
			case k < 8:
				s.ReleaseTag(rng.Intn(6))
			case k < 9:
				s.Shrink(rng.Int63n(256) + 1)
			default:
				want := referenceFreeAfterReset(s)
				s.Reset()
				if got := s.free.Spans(); !equalSpans(got, want) {
					t.Fatalf("seed %d op %d: free after Reset = %v, want %v", seed, op, got, want)
				}
				if s.UsedBytes() != 0 || len(s.Tags()) != 0 {
					t.Fatalf("seed %d op %d: Reset left %d used bytes in tags %v",
						seed, op, s.UsedBytes(), s.Tags())
				}
			}
			if got, want := s.donations.Spans(), referenceDonated(s); !equalSpans(got, want) {
				t.Fatalf("seed %d op %d: tracked donations %v, reconstruction %v", seed, op, got, want)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// TestCheckInvariantsDonatedOwner corrupts the donation bookkeeping in
// each way the three-owner sweep must notice.
func TestCheckInvariantsDonatedOwner(t *testing.T) {
	build := func() *Space {
		s := mustSpace(t, 1000)
		s.Alloc(100, 1) // [0,100)
		s.Alloc(100, 2) // [100,200)
		s.ReleaseTag(1) // free [0,100) and [200,1000)
		if !s.Shrink(300) {
			t.Fatal("Shrink(300) failed")
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range []struct {
		name    string
		corrupt func(s *Space)
		want    string // substring of the expected error
	}{
		{"untracked donated bytes", func(s *Space) { s.donations.Add(0, 10) }, "donated spans cover 310 bytes, tracked 300"},
		{"donation overlaps free", func(s *Space) { s.donations.Add(0, 10); s.donated += 10 }, "donated span {Start:0 End:10} overlaps"},
		{"donation overlaps a tag", func(s *Space) { s.donations.Add(150, 160); s.donated += 10 }, "donated span {Start:150 End:160} overlaps"},
		{"donation out of bounds", func(s *Space) { s.donations.Add(1000, 1010); s.donated += 10 }, "out of bounds"},
		{"donated range owned by nobody", func(s *Space) { s.donations.Remove(700, 710); s.donated -= 10 }, "accounted 700 of 710 live bytes"},
	} {
		s := build()
		c.corrupt(s)
		if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// BenchmarkCoreLogspaceReset measures Reset on a region with n donated
// spans. Reset rebuilds the free list as the complement of the donations,
// so its cost follows n; the allocations it discards are not walked.
func BenchmarkCoreLogspaceReset(b *testing.B) {
	for _, n := range []int64{100, 1000, 10000} {
		b.Run(fmt.Sprintf("spans=%d", n), func(b *testing.B) {
			// Fill the region with 2n extents under alternating tags,
			// release every other one, and donate the n holes that opens.
			s, err := New(20 * n)
			if err != nil {
				b.Fatal(err)
			}
			for i := int64(0); i < 2*n; i++ {
				s.Alloc(10, int(i%2))
			}
			s.ReleaseTag(1)
			if !s.Shrink(10*n) || s.donations.Count() != int(n) {
				b.Fatalf("want %d donated spans, have %d", n, s.donations.Count())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
			}
		})
	}
}
