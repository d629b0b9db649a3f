package hostset

import "testing"

// TestAcrossWordBoundaries exercises members on both sides of every
// uint64 word — the exact regime where the old uint64 copysets silently
// overflowed (host ids >= 64 mapped to bit 0 of nothing).
func TestAcrossWordBoundaries(t *testing.T) {
	members := []int{0, 1, 63, 64, 65, 127, 128, 255, 511, CapHosts - 1}
	s := Of(members...)
	if s.Count() != len(members) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(members))
	}
	if s.First() != 0 {
		t.Fatalf("First = %d, want 0", s.First())
	}
	for _, h := range members {
		if !s.Has(h) {
			t.Errorf("Has(%d) = false", h)
		}
		if One(h) != Of(h) {
			t.Errorf("One(%d) != Of(%d)", h, h)
		}
	}
	for _, h := range []int{2, 62, 66, 126, 129, 512} {
		if s.Has(h) {
			t.Errorf("Has(%d) = true for a non-member", h)
		}
	}
	// Drain it one member at a time; the set must empty exactly once
	// the last member goes.
	for i, h := range members {
		s = s.Without(h)
		if s.Has(h) {
			t.Errorf("Has(%d) after Without", h)
		}
		if got, want := s.Empty(), i == len(members)-1; got != want {
			t.Errorf("after removing %d: Empty = %v, want %v", h, got, want)
		}
	}
	if s != (Set{}) {
		t.Errorf("drained set != zero value")
	}
}

func TestWithWithoutAreValues(t *testing.T) {
	s := One(70)
	_ = s.With(200)
	if s.Has(200) {
		t.Error("With mutated its receiver")
	}
	_ = s.Without(70)
	if !s.Has(70) {
		t.Error("Without mutated its receiver")
	}
	if (Set{}).First() != -1 {
		t.Error("First on empty != -1")
	}
}

// TestLastAndIntersects covers the partition-validation helpers across
// word boundaries.
func TestLastAndIntersects(t *testing.T) {
	if (Set{}).Last() != -1 {
		t.Error("Last of the empty set != -1")
	}
	for _, h := range []int{0, 63, 64, 99, CapHosts - 1} {
		if got := Of(0, h).Last(); got != h {
			t.Errorf("Last(Of(0,%d)) = %d", h, got)
		}
	}
	if !Of(1, 99).Intersects(Of(99)) || Of(1, 64).Intersects(Of(0, 65)) {
		t.Error("Intersects disagrees with membership")
	}
}
