package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

var testCatalog = &catalog{
	categories: []item{{1, "Black Tea"}, {2, "Green Tea"}},
	products:   []item{{10, "Imperial Dragon Black Tea No. 1"}, {11, "Misty Leaf Green Tea No. 2"}, {12, "Wild Pearl & Co"}},
	users:      5,
}

func script(seed int64, worker int, prof *profile) []page {
	return genScript(rand.New(rand.NewSource(scriptSeed(seed, worker))), prof, testCatalog, 2000)
}

func arrivals(seed int64, phase int) []time.Duration {
	return genArrivals(rand.New(rand.NewSource(arrivalSeed(seed, phase))), 200, 2*time.Second)
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, prof := range []*profile{browseProfile, stormProfile, apibotProfile} {
		if !reflect.DeepEqual(script(7, 0, prof), script(7, 0, prof)) {
			t.Errorf("%s: the same seed gave two different scripts", prof.name)
		}
		if reflect.DeepEqual(script(7, 0, prof), script(8, 0, prof)) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", prof.name)
		}
		if reflect.DeepEqual(script(7, 0, prof), script(7, 1, prof)) {
			t.Errorf("%s: two workers of one seed share a script", prof.name)
		}
	}
	if !reflect.DeepEqual(arrivals(7, 0), arrivals(7, 0)) {
		t.Error("the same seed gave two different arrival schedules")
	}
	if reflect.DeepEqual(arrivals(7, 0), arrivals(8, 0)) {
		t.Error("seeds 7 and 8 gave the same arrival schedule")
	}
	if reflect.DeepEqual(arrivals(7, 0), arrivals(7, 1)) {
		t.Error("two phases of one seed share an arrival schedule")
	}
}

func TestArrivalsAreAPoissonSchedule(t *testing.T) {
	a := genArrivals(rand.New(rand.NewSource(3)), 500, 20*time.Second)
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if a[len(a)-1] >= 20*time.Second {
		t.Errorf("last arrival at %v is past the phase", a[len(a)-1])
	}
	// 10 000 expected, standard deviation 100.
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals in 20 s at 500/s", n)
	}
}

// The expectations attached to each page must follow from the session
// state the walk itself built up.
func TestScriptExpectationsFollowSessionState(t *testing.T) {
	for _, prof := range []*profile{browseProfile, stormProfile, apibotProfile} {
		pages := script(1, 0, prof)
		if !pages[0].first {
			t.Fatalf("%s: the script does not begin a session", prof.name)
		}
		var loggedIn, ordered bool
		var cart, orders, sessions int
		for i, pg := range pages {
			if pg.first {
				loggedIn, ordered, cart = false, false, 0
				sessions++
				if pg.kind != kHome {
					t.Fatalf("%s: session starts on %s", prof.name, kindNames[pg.kind])
				}
			}
			switch pg.kind {
			case kLogin:
				loggedIn = true
			case kAddToCart:
				cart++
			case kLogout:
				loggedIn, cart = false, 0
			case kCheckout:
				if want := loggedIn && cart > 0; pg.order != want {
					t.Fatalf("%s page %d: checkout expects an order = %v with loggedIn=%v cart=%d", prof.name, i, pg.order, loggedIn, cart)
				}
				if pg.order {
					cart, ordered = 0, true
					orders++
				}
			case kProfile:
				if pg.recall != (loggedIn && ordered) {
					t.Fatalf("%s page %d: profile recall = %v with loggedIn=%v ordered=%v", prof.name, i, pg.recall, loggedIn, ordered)
				}
			}
			if (pg.body != "") != (pg.kind == kLogin || pg.kind == kAddToCart || pg.kind == kCheckout) {
				t.Fatalf("%s page %d: %s with body %q", prof.name, i, kindNames[pg.kind], pg.body)
			}
		}
		if sessions < 10 {
			t.Errorf("%s: only %d sessions in 2000 pages", prof.name, sessions)
		}
		if prof == apibotProfile && orders > 0 {
			t.Errorf("apibot placed %d orders", orders)
		}
		if prof != apibotProfile && orders == 0 {
			t.Errorf("%s never checks out", prof.name)
		}
	}
}

func TestProfileTablesAreDistributions(t *testing.T) {
	for _, prof := range []*profile{browseProfile, stormProfile, apibotProfile} {
		for from, edges := range prof.next {
			if len(edges) == 0 {
				continue
			}
			sum := 0.0
			for _, e := range edges {
				sum += e.p
			}
			if sum < 0.999999 || sum > 1.000001 {
				t.Errorf("%s: edges out of %s sum to %v", prof.name, kindNames[from], sum)
			}
		}
	}
}
