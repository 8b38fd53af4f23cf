package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// homePages is a script of n identical home pages.
func homePages(n int) []page {
	out := make([]page, n)
	for i := range out {
		out[i] = page{kind: kHome, first: i == 0, path: "/", status: http.StatusOK, marker: "Welcome"}
	}
	return out
}

// A target that freezes once must be charged for every arrival it delayed:
// latency runs from the time a page was due, not from when the connection
// got round to sending it.
func TestOpenLoopChargesAStallFromIntendedTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int32
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 3 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "Welcome to the TeaStore")
	}))
	defer target.Close()

	// One connection, an arrival every 10 ms: the third freezes the target.
	offsets := make([]time.Duration, 20)
	for i := range offsets {
		offsets[i] = time.Duration(i) * 10 * time.Millisecond
	}
	d := newDriver(target.URL, [][]page{homePages(64)}, "t")
	defer d.close()
	ph := d.openLoop(context.Background(), offsets)

	if !ph.consistent() || ph.attempted != len(offsets) {
		t.Fatalf("attempted %d, served %d, failed %d, dropped %d", ph.attempted, ph.served(), ph.failed, ph.dropped)
	}
	if ph.failed+ph.dropped != 0 {
		t.Fatalf("%d failed, %d dropped: %v", ph.failed, ph.dropped, ph.errs)
	}
	// One connection serves the arrivals in order, so lat[i] belongs to the
	// arrival due at offsets[i]. Those due during the stall were sent only
	// when it ended: a send-time clock would show them as fast, an
	// intended-time clock must show at least the rest of the stall.
	for i := 3; i < 3+int(stall/(20*time.Millisecond)); i++ {
		rest := stall - (offsets[i] - offsets[2])
		if lat := time.Duration(ph.lat[i] * float64(time.Millisecond)); lat < rest-5*time.Millisecond {
			t.Errorf("arrival due at %v answered in %v: the stall was not charged from its intended time (≥ %v)", offsets[i], lat, rest)
		}
	}
	if ph.waited == 0 {
		t.Error("no arrival is reported to have waited for the busy connection")
	}
	if len(ph.late) != len(offsets) {
		t.Errorf("%d dispatch-lateness samples for %d arrivals", len(ph.late), len(offsets))
	}
}

// Arrivals beyond the queue's bound are dropped, counted, and the identity
// still holds.
func TestOpenLoopDropsWhenTheQueueOverflows(t *testing.T) {
	release := make(chan struct{})
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, "Welcome to the TeaStore")
	}))
	defer target.Close()

	offsets := make([]time.Duration, queueCap+50) // all due at once
	d := newDriver(target.URL, [][]page{homePages(8)}, "t")
	defer d.close()
	done := make(chan *phase)
	go func() { done <- d.openLoop(context.Background(), offsets) }()
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	ph := <-done

	if ph.dropped == 0 {
		t.Errorf("%d arrivals at once against a queue of %d and none was dropped", len(offsets), queueCap)
	}
	if !ph.consistent() {
		t.Errorf("attempted %d ≠ served %d + failed %d + dropped %d", ph.attempted, ph.served(), ph.failed, ph.dropped)
	}
}

// A page with the wrong content is a failed page, whatever its status.
func TestContentChecks(t *testing.T) {
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/category/1":
			fmt.Fprint(w, "<h1>Black Tea</h1>"+cardTag+cardTag)
		case "/login":
			http.SetCookie(w, &http.Cookie{Name: cookieToken, Value: "tok"})
			http.Redirect(w, r, "/", http.StatusSeeOther)
		case "/cart/checkout":
			if c, err := r.Cookie(cookieToken); err != nil || c.Value != "tok" {
				http.Error(w, "no session", http.StatusForbidden)
				return
			}
			fmt.Fprintf(w, "Order #%d placed — %s", 41, r.FormValue("clientOrderId"))
		case "/profile":
			fmt.Fprint(w, "Order history <td>#40</td>")
		default:
			fmt.Fprint(w, "Welcome to the TeaStore")
		}
	}))
	defer target.Close()

	script := []page{
		{kind: kHome, first: true, path: "/", status: 200, marker: "Welcome to the TeaStore"},
		{kind: kCategory, path: "/category/1", status: 200, marker: "<h1>Black Tea</h1>", cards: 2},
		{kind: kCategory, path: "/category/1", status: 200, marker: "<h1>Black Tea</h1>", cards: cardsPerPage}, // short page
		{kind: kHome, path: "/", status: 200, marker: "no such text"},                                          // wrong content
		{kind: kHome, path: "/", status: http.StatusSeeOther},                                                  // wrong status
		{kind: kLogin, path: "/login", body: "email=a&password=b", status: http.StatusSeeOther},
		{kind: kCheckout, path: "/cart/checkout", body: "clientOrderId=", status: 200, marker: "placed", order: true},
		{kind: kProfile, path: "/profile", status: 200, marker: "Order history", recall: true}, // lists #40, not #41
	}
	want := []bool{true, true, false, false, false, true, true, false}
	d := newDriver(target.URL, [][]page{script}, "k")
	defer d.close()
	w := d.workers[0]
	for i, ok := range want {
		o := w.issue(context.Background(), "")
		if (o.err == "") != ok {
			t.Errorf("page %d (%s %s): err %q, want ok=%v", i, kindNames[script[i].kind], script[i].path, o.err, ok)
		}
		if script[i].order && o.orderID != "41" {
			t.Errorf("acked order %q, want 41", o.orderID)
		}
	}
}

func TestClosedLoopStopsAtThePageLimit(t *testing.T) {
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "Welcome to the TeaStore")
	}))
	defer target.Close()
	d := newDriver(target.URL, [][]page{homePages(8), homePages(8)}, "t")
	defer d.close()
	ph := d.closedLoop(context.Background(), 2, time.Minute, 5, nil)
	if ph.attempted != 10 || ph.served() != 10 || !ph.consistent() {
		t.Errorf("attempted %d, served %d, want 10 and 10", ph.attempted, ph.served())
	}
	if ph.sessions != 2 {
		t.Errorf("%d sessions begun, want 2", ph.sessions)
	}
	answered := 0
	for _, n := range ph.perSecond {
		answered += n
	}
	if answered != ph.served() {
		t.Errorf("%d pages filed by second, %d served", answered, ph.served())
	}
}

// The trailing partial second cannot be the best one, however full.
func TestBestSecondCountsWholeSecondsOnly(t *testing.T) {
	ph := &phase{elapsed: 3500 * time.Millisecond, perSecond: []int{5, 9, 7, 20}, lat: make([]float64, 41)}
	if got := ph.bestSecond(); got != 9 {
		t.Errorf("best second = %d, want 9", got)
	}
	short := &phase{elapsed: 500 * time.Millisecond, perSecond: []int{10}, lat: make([]float64, 10)}
	if got := short.bestSecond(); got != 20 {
		t.Errorf("best second of half a second = %d, want the mean rate 20", got)
	}
}
