package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Cookie names and page furniture of internal/services/webui that the
// content checks rely on.
const (
	cookieToken = "teastore_token"
	cookieCart  = "teastore_cart"
	cardTag     = `<div class="card">`
	orderTag    = "Order #"
)

// queueCap bounds the arrivals waiting for a free connection; one that
// finds the queue full is dropped and counts as a failed page.
const queueCap = 256

// pageTimeout is the latest a page may answer before it counts as failed.
const pageTimeout = 10 * time.Second

// outcome is one issued page as the generator saw it.
type outcome struct {
	kind       pageKind
	first      bool
	start, end time.Time
	bytes      int
	orderID    string // set when a checkout was acked
	err        string // "" when the answer was the expected one
}

// worker owns one keep-alive connection's worth of traffic: it walks its
// own script in order, one session's cookies at a time.
type worker struct {
	id     int
	base   string
	client *http.Client
	script []page
	pos    int

	token, cart string
	lastOrder   string
	keyPrefix   string
	orders      int
	buf         bytes.Buffer
}

// issue sends the worker's next page and checks the answer against the
// script's expectation. traceID, when set, is sent as X-Trace-Id.
func (w *worker) issue(ctx context.Context, traceID string) outcome {
	pg := &w.script[w.pos]
	w.pos = (w.pos + 1) % len(w.script)
	if pg.first {
		w.token, w.cart, w.lastOrder = "", "", ""
	}
	out := outcome{kind: pg.kind, first: pg.first}

	method, body := http.MethodGet, io.Reader(nil)
	if pg.body != "" {
		form := pg.body
		if pg.kind == kCheckout {
			// A fresh idempotency key per logical checkout.
			w.orders++
			form += w.keyPrefix + "-" + strconv.Itoa(w.id) + "-" + strconv.Itoa(w.orders)
		}
		method, body = http.MethodPost, strings.NewReader(form)
	}
	ctx, cancel := context.WithTimeout(ctx, pageTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, w.base+pg.path, body)
	if err != nil {
		out.start = time.Now()
		out.end, out.err = out.start, err.Error()
		return out
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	switch {
	case w.token != "" && w.cart != "":
		req.Header.Set("Cookie", cookieToken+"="+w.token+"; "+cookieCart+"="+w.cart)
	case w.token != "":
		req.Header.Set("Cookie", cookieToken+"="+w.token)
	case w.cart != "":
		req.Header.Set("Cookie", cookieCart+"="+w.cart)
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}

	out.start = time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		out.end, out.err = time.Now(), err.Error()
		return out
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out.end = time.Now()
	out.bytes = w.buf.Len()
	if err != nil {
		out.err = err.Error()
		return out
	}
	for _, c := range resp.Cookies() {
		v := c.Value
		if c.MaxAge < 0 {
			v = ""
		}
		switch c.Name {
		case cookieToken:
			w.token = v
		case cookieCart:
			w.cart = v
		}
	}
	out.err = w.check(pg, resp.StatusCode, &out)
	return out
}

// check compares one answer with the script's expectation and returns
// what is wrong with it, "" when nothing is.
func (w *worker) check(pg *page, status int, out *outcome) string {
	got := w.buf.Bytes()
	switch {
	case status != pg.status:
		return fmt.Sprintf("%s %s: status %d, want %d", kindNames[pg.kind], pg.path, status, pg.status)
	case pg.marker != "" && !bytes.Contains(got, []byte(pg.marker)):
		return fmt.Sprintf("%s %s: %q not in the page", kindNames[pg.kind], pg.path, pg.marker)
	case pg.cards > 0 && bytes.Count(got, []byte(cardTag)) != pg.cards:
		return fmt.Sprintf("%s %s: %d product cards, want %d", kindNames[pg.kind], pg.path, bytes.Count(got, []byte(cardTag)), pg.cards)
	case pg.kind == kLogin && w.token == "":
		return "login set no session cookie"
	case pg.kind == kAddToCart && w.cart == "":
		return "add-to-cart set no cart cookie"
	}
	if pg.order {
		i := bytes.Index(got, []byte(orderTag))
		if i < 0 {
			return "checkout page names no order"
		}
		rest := got[i+len(orderTag):]
		n := 0
		for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
			n++
		}
		if n == 0 {
			return "checkout page names no order number"
		}
		w.lastOrder = string(rest[:n])
		out.orderID = w.lastOrder
	}
	if pg.recall && w.lastOrder != "" && !bytes.Contains(got, []byte("<td>#"+w.lastOrder+"</td>")) {
		return fmt.Sprintf("profile does not list order %s placed earlier in the session", w.lastOrder)
	}
	return ""
}

// phase is everything one load phase measured.
type phase struct {
	attempted int
	failed    int
	dropped   int
	lat       []float64 // ms, served pages
	perSecond []int     // closed loop: pages answered in each second since the start
	byKind    [numKinds][]float64
	late      []float64 // ms, open loop: dispatch time − intended time
	waited    int       // open loop: arrivals that found every connection busy
	bytes     int64
	sessions  int
	orderIDs  []string
	elapsed   time.Duration
	errs      []string // the first few failures, for the log
}

func (p *phase) served() int { return len(p.lat) }

// bestSecond is the most pages a closed loop answered in one of its whole
// seconds. On a shared host a neighbour's burst takes CPU away for tenths
// of a second at a time; that only ever lowers a second's count, so the
// best second repeats from run to run where the mean over the phase does
// not. A loop shorter than a second reports its mean rate.
func (p *phase) bestSecond() int {
	whole := int(p.elapsed / time.Second)
	if whole == 0 {
		return int(float64(p.served()) / p.elapsed.Seconds())
	}
	best := 0
	for _, n := range p.perSecond[:min(whole, len(p.perSecond))] {
		best = max(best, n)
	}
	return best
}

// consistent is the accounting identity every phase must satisfy.
func (p *phase) consistent() bool { return p.attempted == p.served()+p.failed+p.dropped }

const keptErrs = 5

// record files one outcome; its latency runs from due.
func (p *phase) record(o outcome, due time.Time) {
	if o.first {
		p.sessions++
	}
	p.bytes += int64(o.bytes)
	if o.err != "" {
		p.failed++
		if len(p.errs) < keptErrs {
			p.errs = append(p.errs, o.err)
		}
		return
	}
	ms := msOf(o.end.Sub(due))
	p.lat = append(p.lat, ms)
	p.byKind[o.kind] = append(p.byKind[o.kind], ms)
	if o.orderID != "" {
		p.orderIDs = append(p.orderIDs, o.orderID)
	}
}

// merge folds a worker's private recording into p.
func (p *phase) merge(q *phase) {
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	for len(p.perSecond) < len(q.perSecond) {
		p.perSecond = append(p.perSecond, 0)
	}
	for i, n := range q.perSecond {
		p.perSecond[i] += n
	}
	for k := range q.byKind {
		p.byKind[k] = append(p.byKind[k], q.byKind[k]...)
	}
	p.bytes += q.bytes
	p.sessions += q.sessions
	p.orderIDs = append(p.orderIDs, q.orderIDs...)
	for _, e := range q.errs {
		if len(p.errs) < keptErrs {
			p.errs = append(p.errs, e)
		}
	}
}

// driver is the only load source of a run: one process, len(workers)
// keep-alive connections and as many worker goroutines.
type driver struct {
	workers []*worker
}

// newDriver builds one worker per script over a shared transport capped at
// that many connections. Redirects are not followed: a page is one request
// and a 303 is a final answer.
func newDriver(base string, scripts [][]page, keyPrefix string) *driver {
	client := &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     len(scripts),
			MaxIdleConnsPerHost: len(scripts),
			DisableCompression:  true,
		},
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	d := &driver{}
	for i, s := range scripts {
		d.workers = append(d.workers, &worker{id: i, base: base, client: client, script: s, keyPrefix: keyPrefix})
	}
	return d
}

func (d *driver) close() {
	d.workers[0].client.CloseIdleConnections()
}

// openLoop sends one page per arrival offset. A page's latency runs from
// the time it was due, not from when a connection got to it, so a stall
// is charged to every arrival it delayed (no coordinated omission).
func (d *driver) openLoop(ctx context.Context, offsets []time.Duration) *phase {
	type arrival struct{ due time.Time }
	queue := make(chan arrival, queueCap)
	var busy atomic.Int32
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	parts := make([]phase, len(d.workers))
	for i, w := range d.workers {
		wg.Add(1)
		go func(w *worker, rec *phase) {
			defer wg.Done()
			for a := range queue {
				busy.Add(1)
				o := w.issue(ctx, "")
				busy.Add(-1)
				rec.record(o, a.due)
			}
		}(w, &parts[i])
	}

	total := &phase{attempted: len(offsets)}
	for i, off := range offsets {
		due := start.Add(off)
		sleepUntil(due)
		if ctx.Err() != nil {
			total.dropped += len(offsets) - i
			break
		}
		total.late = append(total.late, msOf(time.Since(due)))
		if int(busy.Load()) == len(d.workers) || len(queue) > 0 {
			total.waited++
		}
		select {
		case queue <- arrival{due}:
		default:
			total.dropped++
		}
	}
	close(queue)
	wg.Wait()
	total.elapsed = time.Since(start)
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// sleepUntil blocks the calling thread until due. Go's timers wake an idle
// process up to a millisecond late, which is the whole lateness budget of
// the generator; nanosleep is good to tens of microseconds. No single
// sleep is longer than the gap between two arrivals, so a cancelled run
// is noticed at the next one.
func sleepUntil(due time.Time) {
	if d := time.Until(due); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // a signal may cut it short; the arrival then goes out early
	}
}

// closedLoop keeps the first n workers each sending its next page as soon
// as the previous one is answered, until dur has passed or, when pages > 0,
// each has sent that many. tr, when non-nil, traces the pages; it is not
// safe for n > 1.
func (d *driver) closedLoop(ctx context.Context, n int, dur time.Duration, pages int, tr *tracer) *phase {
	var wg sync.WaitGroup
	parts := make([]phase, n)
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(w *worker, rec *phase) {
			defer wg.Done()
			for seq := 0; (pages == 0 || seq < pages) && time.Now().Before(deadline) && ctx.Err() == nil; seq++ {
				id := ""
				if tr != nil {
					id = tr.id(seq)
				}
				o := w.issue(ctx, id)
				rec.attempted++
				rec.record(o, o.start)
				if o.err == "" {
					sec := int(o.end.Sub(start) / time.Second)
					for len(rec.perSecond) <= sec {
						rec.perSecond = append(rec.perSecond, 0)
					}
					rec.perSecond[sec]++
				}
				if tr != nil {
					tr.saw(ctx, seq, o)
				}
			}
		}(d.workers[i], &parts[i])
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.attempted += parts[i].attempted
		total.merge(&parts[i])
	}
	return total
}
