package metrics

import "testing"

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPeerOutlier(t *testing.T) {
	cases := []struct {
		name              string
		xs                []float64
		i                 int
		factor, minExcess float64
		base              float64
		out               bool
	}{
		{"slow member of a fast pool", []float64{5, 100, 6}, 1, 3, 25, 5.5, true},
		{"two-member pool: the sick one cannot drag its own baseline", []float64{5, 100}, 1, 3, 25, 5, true},
		{"healthy member beside an outlier", []float64{5, 100, 6}, 0, 3, 25, 53, false},
		{"uniformly slow pool has no outlier", []float64{100, 100, 100}, 0, 3, 25, 100, false},
		{"ratio alone is noise on a fast pool", []float64{2, 7, 2}, 1, 3, 25, 2, false},
		{"excess alone is not a ratio", []float64{100, 160, 100}, 1, 3, 25, 100, false},
		{"zero baseline judges nobody", []float64{0, 50, 0}, 1, 3, 25, 0, false},
	}
	for _, c := range cases {
		base, out := PeerOutlier(c.xs, c.i, c.factor, c.minExcess)
		if base != c.base || out != c.out {
			t.Errorf("%s: PeerOutlier = (%v, %v), want (%v, %v)", c.name, base, out, c.base, c.out)
		}
	}
}
