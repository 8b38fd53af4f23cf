package topology

import (
	"testing"
	"testing/quick"
)

func TestCPUSetBasics(t *testing.T) {
	var s CPUSet
	if !s.Empty() {
		t.Fatal("zero set not empty")
	}
	s.Add(3)
	s.Add(100)
	s.Add(3) // duplicate
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	if !s.Contains(3) || !s.Contains(100) || s.Contains(4) || s.Contains(-1) || s.Contains(999) {
		t.Fatal("Contains wrong")
	}
}

func TestCPUSetNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	var s CPUSet
	s.Add(-1)
}

func TestCPUSetAlgebra(t *testing.T) {
	a := NewCPUSet(0, 1, 2, 64)
	b := NewCPUSet(2, 3, 64, 128)
	if got := a.Intersect(b); !got.Equal(NewCPUSet(2, 64)) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Intersect(NewCPUSet(3, 200)); !got.Empty() {
		t.Fatalf("disjoint Intersect = %v", got)
	}
}

func TestCPUSetEqualDifferentWordLengths(t *testing.T) {
	a := NewCPUSet(1)
	b := NewCPUSet(1, 200).Intersect(NewCPUSet(1, 255)) // trailing zero words
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal should ignore trailing zero words")
	}
}

func TestCPUSetString(t *testing.T) {
	cases := []struct {
		ids  []int
		want string
	}{
		{nil, "∅"},
		{[]int{0}, "0"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 1, 2, 8, 12, 13, 14}, "0-2,8,12-14"},
	}
	for _, c := range cases {
		if got := NewCPUSet(c.ids...).String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.ids, got, c.want)
		}
	}
}

func TestParseCPUSet(t *testing.T) {
	s, err := ParseCPUSet("0-2, 8,12-14")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(NewCPUSet(0, 1, 2, 8, 12, 13, 14)) {
		t.Fatalf("parsed %v", s)
	}
	if _, err := ParseCPUSet("5-2"); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := ParseCPUSet("abc"); err == nil {
		t.Fatal("garbage accepted")
	}
	empty, err := ParseCPUSet("")
	if err != nil || !empty.Empty() {
		t.Fatal("empty spec should parse to empty set")
	}
}

// Property: String → Parse round-trips.
func TestPropertyCPUSetRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		var s CPUSet
		for _, r := range raw {
			s.Add(int(r) % 512)
		}
		parsed, err := ParseCPUSet(s.String())
		if err != nil {
			return false
		}
		return parsed.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: algebra laws — A∩B = B∩A, and an id is in A∩B exactly when
// it is in both A and B.
func TestPropertyCPUSetAlgebraLaws(t *testing.T) {
	mk := func(raw []uint16) CPUSet {
		var s CPUSet
		for _, r := range raw {
			s.Add(int(r) % 512)
		}
		return s
	}
	f := func(ra, rb []uint16) bool {
		a, b := mk(ra), mk(rb)
		ab := a.Intersect(b)
		if !ab.Equal(b.Intersect(a)) {
			return false
		}
		for id := 0; id < 512; id++ {
			if ab.Contains(id) != (a.Contains(id) && b.Contains(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
