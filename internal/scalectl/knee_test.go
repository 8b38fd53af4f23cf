package scalectl

import "testing"

func TestKneeOf(t *testing.T) {
	cases := []struct {
		name     string
		peak     []float64
		knee     int
		maxGain  float64
		gainFrac float64
	}{
		{"empty", nil, 1, 1, 0.1},
		{"single", []float64{100}, 1, 1, 0.1},
		{"linear scaling", []float64{100, 190, 270}, 3, 2.7, 0.1},
		{"flat after two", []float64{100, 180, 185}, 2, 1.85, 0.1},
		{"never pays", []float64{100, 105, 104}, 1, 1.05, 0.1},
		{"zero baseline", []float64{0, 50}, 1, 1, 0.1},
		{"dip then recovery below threshold", []float64{100, 90, 95}, 1, 1, 0.1},
		// A step gains against the best earlier peak: recovering from a
		// dip is not scaling.
		{"dip then recovery to the old peak", []float64{100, 85, 100}, 1, 1, 0.1},
		{"dip then recovery past the old peak", []float64{100, 85, 115}, 3, 1.15, 0.1},
		{"rise, dip, rise again", []float64{100, 150, 120, 200}, 4, 2, 0.1},

		// Edge cases the cross-validation harness leans on: these shapes
		// appear when a service is simply not the bottleneck.
		{"flat curve", []float64{100, 100, 100}, 1, 1, 0.1},
		{"monotone decreasing", []float64{100, 80, 60}, 1, 1, 0.1},
		{"single replica point", []float64{240}, 1, 1, 0.1},
		// The knee test is >= gainFrac: a gain of exactly 10% still pays.
		{"exact 10% boundary pays", []float64{100, 110}, 2, 1.1, 0.1},
		{"just under 10% boundary does not", []float64{100, 109.999}, 1, 1.09999, 0.1},
		// Later-replica boundary: 200→220 is exactly +10% at r=3.
		{"exact boundary at third replica", []float64{100, 200, 220}, 3, 2.2, 0.1},
		{"negative baseline treated as unmeasurable", []float64{-5, 50}, 1, 1, 0.1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			knee, gain := KneeOf(c.peak, c.gainFrac)
			if knee != c.knee {
				t.Errorf("knee = %d, want %d", knee, c.knee)
			}
			if diff := gain - c.maxGain; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("maxGain = %v, want %v", gain, c.maxGain)
			}
		})
	}
}
