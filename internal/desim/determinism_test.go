package desim

import (
	"bytes"
	"fmt"
	"testing"
)

// queueTrace runs a small M/G/2 queueing model — Poisson-ish arrivals
// to two servers with a FIFO wait queue and lognormal service — and logs
// every event into a byte trace. The model exercises the pieces the seed
// contract (rng.go) promises determinism over: named RNG streams,
// same-instant FIFO tie-breaks, and the clock.
func queueTrace(seed int64) []byte {
	var buf bytes.Buffer
	eng := New()
	pool := NewRNGPool(seed)
	arrivals := pool.Stream("arrivals")
	service := pool.Stream("service")
	const servers = 2
	busy, queue := 0, []int(nil)

	const jobs = 200
	started := 0
	var start func(id int)
	start = func(id int) {
		busy++
		fmt.Fprintf(&buf, "%d start %d inuse=%d\n", int64(eng.Now()), id, busy)
		eng.After(service.LogNormal(3*Millisecond, 0.7), func() {
			fmt.Fprintf(&buf, "%d done %d\n", int64(eng.Now()), id)
			busy--
			if len(queue) > 0 {
				next := queue[0]
				queue = queue[1:]
				start(next)
			}
		})
	}
	var arrive func()
	arrive = func() {
		if started >= jobs {
			return
		}
		started++
		id := started
		fmt.Fprintf(&buf, "%d arrive %d queued=%d\n", int64(eng.Now()), id, len(queue))
		if busy < servers {
			start(id)
		} else {
			queue = append(queue, id)
		}
		eng.After(arrivals.Exp(Millisecond), arrive)
	}
	eng.After(0, arrive)
	drain(eng)
	return buf.Bytes()
}

// TestSeededRunsAreByteIdentical is the determinism regression test: two
// runs with the same master seed must produce byte-identical event
// traces and results, and a different seed must actually change them.
func TestSeededRunsAreByteIdentical(t *testing.T) {
	a := queueTrace(42)
	b := queueTrace(42)
	if !bytes.Equal(a, b) {
		line := 0
		al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(al) && i < len(bl); i++ {
			if !bytes.Equal(al[i], bl[i]) {
				line = i
				break
			}
		}
		t.Fatalf("same seed diverged at trace line %d:\n  run1: %s\n  run2: %s",
			line, al[line], bl[line])
	}
	if c := queueTrace(43); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical traces — the seed is being ignored")
	}
}
