package metrics

import (
	"fmt"
	"strings"
)

// BusyTracker accumulates time-weighted busy fractions for a pool of
// identical resources (e.g. a CPU's two SMT threads, or a service's worker
// pool). Callers report level changes with SetBusy at monotonically
// non-decreasing timestamps.
//
// BusyTracker is NOT safe for concurrent use: it belongs to the
// single-goroutine discrete-event simulator, whose virtual clock has no
// meaning across threads. Concurrent HTTP-side recording uses
// AtomicHistogram instead; the trace middleware deliberately shares no
// tracker state.
type BusyTracker struct {
	capacity int
	busy     int
	lastT    int64
	busyNS   int64 // ∑ busy·dt
	startT   int64
	started  bool
}

// NewBusyTracker returns a tracker for capacity parallel units.
func NewBusyTracker(capacity int) *BusyTracker {
	if capacity <= 0 {
		panic("metrics: BusyTracker capacity must be positive")
	}
	return &BusyTracker{capacity: capacity}
}

// SetBusy records that from time t onward, busy units are active.
func (b *BusyTracker) SetBusy(t int64, busy int) {
	if busy < 0 || busy > b.capacity {
		panic(fmt.Sprintf("metrics: busy=%d outside [0,%d]", busy, b.capacity))
	}
	if !b.started {
		b.started = true
		b.startT = t
		b.lastT = t
		b.busy = busy
		return
	}
	if t < b.lastT {
		panic(fmt.Sprintf("metrics: time went backwards: %d < %d", t, b.lastT))
	}
	b.busyNS += int64(b.busy) * (t - b.lastT)
	b.lastT = t
	b.busy = busy
}

// Adjust changes the busy level by delta at time t.
func (b *BusyTracker) Adjust(t int64, delta int) { b.SetBusy(t, b.busy+delta) }

// Utilization returns the mean busy fraction over [start, now]. now must be
// ≥ the last reported timestamp.
func (b *BusyTracker) Utilization(now int64) float64 {
	if !b.started || now <= b.startT {
		return 0
	}
	total := b.busyNS + int64(b.busy)*(now-b.lastT)
	return float64(total) / float64(int64(b.capacity)*(now-b.startT))
}

// Reset restarts accounting from time t with the current busy level.
func (b *BusyTracker) Reset(t int64) {
	busy := b.busy
	*b = BusyTracker{capacity: b.capacity}
	b.SetBusy(t, busy)
}

// Throughput counts completions over an interval. Like BusyTracker it is
// single-goroutine by contract (simulator use); wall-clock load paths
// count completions with their own atomics.
type Throughput struct {
	count  int64
	startT int64
	endT   int64
	open   bool
}

// Start begins a measurement window at t, discarding prior counts.
func (t *Throughput) Start(at int64) { *t = Throughput{startT: at, open: true} }

// Add records n completions; ignored before Start or after Stop, which is
// exactly the warmup/drain behaviour measurement windows need.
func (t *Throughput) Add(n int64) {
	if t.open {
		t.count += n
	}
}

// Stop closes the window at time at.
func (t *Throughput) Stop(at int64) {
	t.endT = at
	t.open = false
}

// PerSecond returns the completion rate. Zero-length windows return 0.
func (t *Throughput) PerSecond() float64 {
	dur := t.endT - t.startT
	if dur <= 0 {
		return 0
	}
	return float64(t.count) / (float64(dur) / 1e9)
}

// Table renders rows of label → formatted values as an aligned text table;
// shared by cmd/simstudy and the benchmark harness for figure output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb []byte
	if t.Title != "" {
		sb = append(sb, t.Title...)
		sb = append(sb, '\n')
	}
	appendRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb = append(sb, ' ', ' ')
			}
			sb = append(sb, c...)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb = append(sb, ' ')
				}
			}
		}
		sb = append(sb, '\n')
	}
	appendRow(t.Headers)
	for _, row := range t.Rows {
		appendRow(row)
	}
	return string(sb)
}

// CSV renders the table as RFC-4180-ish CSV (header row first) for
// plotting pipelines.
func (t Table) CSV() string {
	var sb []byte
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb = append(sb, ',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb = append(sb, '"')
				sb = append(sb, strings.ReplaceAll(c, `"`, `""`)...)
				sb = append(sb, '"')
			} else {
				sb = append(sb, c...)
			}
		}
		sb = append(sb, '\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return string(sb)
}
