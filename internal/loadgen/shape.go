package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// RateShape is the deterministic rate trajectory of a run: a multiplier
// over the configured mean rate as a function of normalized run position
// u ∈ [0, 1]. Every built-in shape integrates to 1 over the run, so the
// configured -rate is always the run's true mean offered rate whatever
// the shape.
type RateShape interface {
	// Name labels the shape in reports.
	Name() string
	// Factor is the rate multiplier at normalized position u.
	Factor(u float64) float64
}

// steadyShape offers a constant rate.
type steadyShape struct{}

func (steadyShape) Name() string           { return "steady" }
func (steadyShape) Factor(float64) float64 { return 1 }

// diurnalShape is one full day compressed into the run: a sinusoid
// swinging ±60% around the mean, trough at the start, peak mid-run.
type diurnalShape struct{}

func (diurnalShape) Name() string { return "diurnal" }
func (diurnalShape) Factor(u float64) float64 {
	return 1 - 0.6*math.Cos(2*math.Pi*u)
}

// Flash-crowd geometry: quiet baseline, then a burst window at flashPeak×
// the baseline-relative rate. The baseline is solved so the run mean
// stays 1.
const (
	flashFrom = 0.40
	flashTo   = 0.55
	flashPeak = 3.0
)

// flashBase keeps ∫factor = 1: base·(1−w) + peak·w = 1.
var flashBase = (1 - flashPeak*(flashTo-flashFrom)) / (1 - (flashTo - flashFrom))

// flashShape is the flash crowd: a quiet site, a sudden 3× spike for 15%
// of the run, then quiet again — the scenario that forces the autoscaler
// to walk replicas up and back down.
type flashShape struct{}

func (flashShape) Name() string { return "flash" }
func (flashShape) Factor(u float64) float64 {
	if u >= flashFrom && u < flashTo {
		return flashPeak
	}
	return flashBase
}

// FlashWindow reports the flash shape's burst interval in normalized run
// position — the runner grades recovery from its end.
func FlashWindow() (from, to float64) { return flashFrom, flashTo }

// rampShape climbs linearly from 0.25× to 1.75× the mean — the
// slow-squeeze that walks the stack through its knee exactly once.
type rampShape struct{}

func (rampShape) Name() string { return "ramp" }
func (rampShape) Factor(u float64) float64 {
	return 0.25 + 1.5*u
}

// TracePoint is one sample of a recorded load trace.
type TracePoint struct {
	// Seconds is the offset into the trace.
	Seconds float64
	// Rate is the measured requests/s at that offset.
	Rate float64
}

// traceShape replays a recorded rate trace, linearly interpolated and
// normalized on both axes: the time axis is stretched over the run and
// the rate axis divided by the trace mean, so -rate still sets the run's
// mean offered rate and the trace contributes only its *shape*.
type traceShape struct {
	points []TracePoint
	mean   float64
}

// NewTraceShape builds a shape from trace points (offsets must be
// non-decreasing, at least two points, some positive rate).
func NewTraceShape(points []TracePoint) (RateShape, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("loadgen: trace needs at least 2 points, got %d", len(points))
	}
	var integral float64
	for i, p := range points {
		if p.Rate < 0 {
			return nil, fmt.Errorf("loadgen: trace point %d has negative rate %v", i, p.Rate)
		}
		if i > 0 {
			dt := p.Seconds - points[i-1].Seconds
			if dt < 0 {
				return nil, fmt.Errorf("loadgen: trace offsets decrease at point %d", i)
			}
			integral += dt * (p.Rate + points[i-1].Rate) / 2
		}
	}
	span := points[len(points)-1].Seconds - points[0].Seconds
	if span <= 0 {
		return nil, fmt.Errorf("loadgen: trace spans zero time")
	}
	mean := integral / span
	if mean <= 0 {
		return nil, fmt.Errorf("loadgen: trace has zero mean rate")
	}
	return &traceShape{points: points, mean: mean}, nil
}

func (t *traceShape) Name() string { return "trace" }

func (t *traceShape) Factor(u float64) float64 {
	first, last := t.points[0], t.points[len(t.points)-1]
	at := first.Seconds + u*(last.Seconds-first.Seconds)
	for i := 1; i < len(t.points); i++ {
		a, b := t.points[i-1], t.points[i]
		if at > b.Seconds {
			continue
		}
		if b.Seconds == a.Seconds {
			return b.Rate / t.mean
		}
		frac := (at - a.Seconds) / (b.Seconds - a.Seconds)
		return (a.Rate + frac*(b.Rate-a.Rate)) / t.mean
	}
	return last.Rate / t.mean
}

// ParseTrace reads "seconds,rate" lines (CSV; blank lines and #-comments
// skipped) into trace points.
func ParseTrace(r io.Reader) ([]TracePoint, error) {
	var points []TracePoint
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("loadgen: trace line %d: want \"seconds,rate\", got %q", line, text)
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: trace line %d: bad offset: %w", line, err)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: trace line %d: bad rate: %w", line, err)
		}
		points = append(points, TracePoint{Seconds: secs, Rate: rate})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return points, nil
}

// LoadTraceShape reads a trace file into a shape.
func LoadTraceShape(path string) (RateShape, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	points, err := ParseTrace(f)
	if err != nil {
		return nil, err
	}
	return NewTraceShape(points)
}

// ShapeNames lists the registered built-in shape names (traces load via
// LoadTraceShape).
func ShapeNames() []string { return []string{"diurnal", "flash", "ramp", "steady"} }

// NewShape builds a built-in shape by name.
func NewShape(name string) (RateShape, error) {
	switch name {
	case "", "steady":
		return steadyShape{}, nil
	case "diurnal":
		return diurnalShape{}, nil
	case "flash":
		return flashShape{}, nil
	case "ramp":
		return rampShape{}, nil
	default:
		return nil, fmt.Errorf("loadgen: unknown rate shape %q (valid: %v, or a trace file)", name, ShapeNames())
	}
}
