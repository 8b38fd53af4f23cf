package topology

import (
	"fmt"
	"math/bits"
	"strings"
)

// CPUSet is a set of logical CPU ids implemented as a bitmap. The zero
// value is the empty set. CPUSet is a value type: methods that mutate take
// pointer receivers; set-algebra methods return new sets.
type CPUSet struct {
	words []uint64
}

// NewCPUSet returns a set containing the given ids.
func NewCPUSet(ids ...int) CPUSet {
	var s CPUSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id into the set. Negative ids panic.
func (s *CPUSet) Add(id int) {
	if id < 0 {
		panic(fmt.Sprintf("topology: negative CPU id %d", id))
	}
	w := id / 64
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (id % 64)
}

// Contains reports whether id is in the set.
func (s CPUSet) Contains(id int) bool {
	if id < 0 {
		return false
	}
	w := id / 64
	return w < len(s.words) && s.words[w]&(1<<(id%64)) != 0
}

// Count returns the set cardinality.
func (s CPUSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s CPUSet) Empty() bool { return s.Count() == 0 }

// IDs returns the members in ascending order.
func (s CPUSet) IDs() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(id int) { out = append(out, id) })
	return out
}

// ForEach calls fn for each member in ascending order.
func (s CPUSet) ForEach(fn func(id int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &^= 1 << b
		}
	}
}

// Intersect returns s ∩ t.
func (s CPUSet) Intersect(t CPUSet) CPUSet {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = s.words[i] & t.words[i]
	}
	return CPUSet{words: out}
}

// Equal reports whether the two sets have identical membership.
func (s CPUSet) Equal(t CPUSet) bool {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range a {
		var other uint64
		if i < len(b) {
			other = b[i]
		}
		if w != other {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s CPUSet) Clone() CPUSet {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	return CPUSet{words: out}
}

// String renders Linux cpuset list format, e.g. "0-3,8,12-15".
func (s CPUSet) String() string {
	ids := s.IDs()
	if len(ids) == 0 {
		return "∅"
	}
	var b strings.Builder
	i := 0
	for i < len(ids) {
		j := i
		for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j == i {
			fmt.Fprintf(&b, "%d", ids[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", ids[i], ids[j])
		}
		i = j + 1
	}
	return b.String()
}

// ParseCPUSet parses Linux cpuset list format ("0-3,8,12-15").
func ParseCPUSet(spec string) (CPUSet, error) {
	var s CPUSet
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "∅" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		var lo, hi int
		if n, err := fmt.Sscanf(part, "%d-%d", &lo, &hi); err == nil && n == 2 {
			if hi < lo {
				return CPUSet{}, fmt.Errorf("topology: inverted range %q", part)
			}
			for id := lo; id <= hi; id++ {
				s.Add(id)
			}
			continue
		}
		if n, err := fmt.Sscanf(part, "%d", &lo); err == nil && n == 1 {
			if lo < 0 {
				return CPUSet{}, fmt.Errorf("topology: negative CPU id in %q", part)
			}
			s.Add(lo)
			continue
		}
		return CPUSet{}, fmt.Errorf("topology: cannot parse cpuset element %q", part)
	}
	return s, nil
}
