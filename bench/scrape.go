package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/httpkit"
)

// Everything here reads the stack from outside, over the observability
// endpoints it already serves; per-layer counts are differences between
// two scrapes taken around a load phase.

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// routeCount is one route's cumulative served count and busy time.
type routeCount struct {
	n      int64
	busyNs float64
}

// svcCounters sums one service's instances.
type svcCounters struct {
	routes        map[string]routeCount
	retries       int64
	hedges        int64
	shed          int64
	shortCircuits int64
}

// total is the service's count and busy time over all routes.
func (s svcCounters) total() routeCount {
	var t routeCount
	for _, r := range s.routes {
		t.n += r.n
		t.busyNs += r.busyNs
	}
	return t
}

// counters is one scrape of the whole stack.
type counters struct {
	services    map[string]svcCounters
	cacheHits   int64
	cacheMisses int64
	cacheBytes  int64
	orders      int64
}

// scrape reads /metrics.json of every instance, /cache/stats of the image
// service and /stats of persistence.
func scrape(ctx context.Context, st *stack) (counters, error) {
	c := counters{services: map[string]svcCounters{}}
	for _, in := range st.instances {
		var snap httpkit.MetricsSnapshot
		if err := getJSON(ctx, in.URL+"/metrics.json", &snap); err != nil {
			return c, err
		}
		sc := c.services[in.Service]
		if sc.routes == nil {
			sc.routes = map[string]routeCount{}
		}
		for route, s := range snap.Routes {
			rc := sc.routes[route]
			rc.n += s.Count
			rc.busyNs += s.Mean * float64(s.Count)
			sc.routes[route] = rc
		}
		sc.retries += snap.Resilience.Retries
		sc.hedges += snap.Resilience.Hedges
		sc.shed += snap.Resilience.Shed
		sc.shortCircuits += snap.Resilience.ShortCircuits
		c.services[in.Service] = sc
	}
	for _, u := range st.urls("image") {
		var cs map[string]int64
		if err := getJSON(ctx, u+"/cache/stats", &cs); err != nil {
			return c, err
		}
		c.cacheHits += cs["hits"]
		c.cacheMisses += cs["misses"]
		c.cacheBytes += cs["bytes"]
	}
	// Every persistence instance reports the whole cluster's order count.
	var ps map[string]int64
	if err := getJSON(ctx, st.urls("persistence")[0]+"/stats", &ps); err != nil {
		return c, err
	}
	c.orders = ps["orders"]
	return c, nil
}

// since returns the counts accumulated between an earlier scrape and c.
// Gauges (cache bytes) keep c's value.
func (c counters) since(before counters) counters {
	d := counters{
		services:    map[string]svcCounters{},
		cacheHits:   c.cacheHits - before.cacheHits,
		cacheMisses: c.cacheMisses - before.cacheMisses,
		cacheBytes:  c.cacheBytes,
		orders:      c.orders - before.orders,
	}
	for name, now := range c.services {
		was := before.services[name]
		sc := svcCounters{
			routes:        map[string]routeCount{},
			retries:       now.retries - was.retries,
			hedges:        now.hedges - was.hedges,
			shed:          now.shed - was.shed,
			shortCircuits: now.shortCircuits - was.shortCircuits,
		}
		for route, rc := range now.routes {
			prev := was.routes[route]
			sc.routes[route] = routeCount{n: rc.n - prev.n, busyNs: rc.busyNs - prev.busyNs}
		}
		d.services[name] = sc
	}
	return d
}

// route sums the routes of a service whose name starts with prefix.
func (c counters) route(service, prefix string) routeCount {
	var t routeCount
	for route, rc := range c.services[service].routes {
		if strings.HasPrefix(route, prefix) {
			t.n += rc.n
			t.busyNs += rc.busyNs
		}
	}
	return t
}

// discover reads the catalog the scripts are generated against from the
// persistence service: every category by name and its first perCategory
// products (all of them when perCategory is 0).
func discover(ctx context.Context, st *stack, perCategory int) (*catalog, error) {
	base := st.urls("persistence")[0]
	cat := &catalog{}
	if err := getJSON(ctx, base+"/categories", &cat.categories); err != nil {
		return nil, err
	}
	const pageSize = 250
	for _, c := range cat.categories {
		for offset := 0; ; offset += pageSize {
			var pg struct {
				Products []item `json:"products"`
				Total    int    `json:"total"`
			}
			limit := pageSize
			if perCategory > 0 {
				limit = min(pageSize, perCategory-offset)
			}
			url := fmt.Sprintf("%s/categories/%d/products?offset=%d&limit=%d", base, c.ID, offset, limit)
			if err := getJSON(ctx, url, &pg); err != nil {
				return nil, err
			}
			cat.products = append(cat.products, pg.Products...)
			if offset+pageSize >= pg.Total || (perCategory > 0 && offset+pageSize >= perCategory) {
				break
			}
		}
	}
	var ps map[string]int
	if err := getJSON(ctx, base+"/stats", &ps); err != nil {
		return nil, err
	}
	cat.users = ps["users"]
	if len(cat.categories) == 0 || len(cat.products) == 0 || cat.users == 0 {
		return nil, fmt.Errorf("the store is empty: %d categories, %d products, %d users",
			len(cat.categories), len(cat.products), cat.users)
	}
	return cat, nil
}
