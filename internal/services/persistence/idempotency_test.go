package persistence

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
)

// TestMalformedQueryParamsAre400 pins the queryInt fix: a malformed
// offset/limit/sinceId must be a 400, not silently replaced by the
// default (which used to mask client bugs as full-page responses).
func TestMalformedQueryParamsAre400(t *testing.T) {
	c, _ := newFixture(t)
	ctx := context.Background()
	hc := httpkit.NewClient(time.Second)
	for _, path := range []string{
		"/categories/1/products?offset=abc",
		"/categories/1/products?limit=abc",
		"/categories/1/products?offset=1.5",
		"/orders?sinceId=abc",
		"/orders?limit=abc",
		"/orders?sinceId=0x10",
	} {
		if err := hc.GetJSON(ctx, c.base+path, nil); !httpkit.IsStatus(err, 400) {
			t.Errorf("%s err = %v, want 400", path, err)
		}
	}
}

// TestQueryParamDefaultsWhenAbsent: omitting the parameters entirely
// still serves the documented defaults.
func TestQueryParamDefaultsWhenAbsent(t *testing.T) {
	c, _ := newFixture(t)
	ctx := context.Background()
	hc := httpkit.NewClient(time.Second)

	var page ProductPage
	if err := hc.GetJSON(ctx, c.base+"/categories/1/products", &page); err != nil {
		t.Fatalf("no-param products: %v", err)
	}
	if page.Offset != 0 || len(page.Products) != 5 { // default limit 20 > 5 seeded
		t.Fatalf("default page = offset %d, %d products", page.Offset, len(page.Products))
	}
	var orders []db.Order
	if err := hc.GetJSON(ctx, c.base+"/orders", &orders); err != nil {
		t.Fatalf("no-param orders: %v", err)
	}
	if len(orders) != 8 { // all seeded orders fit in the default page
		t.Fatalf("default order page = %d orders, want 8", len(orders))
	}
}

// postOrderRaw issues POST /orders with full control over the body and
// headers, returning status, response headers, and the decoded order.
func postOrderRaw(t *testing.T, base string, req OrderRequest, header map[string]string) (int, http.Header, db.Order) {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, base+"/orders", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var order db.Order
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&order); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, resp.Header, order
}

// TestIdempotentReplayOverHTTP is the POST /orders regression test this
// PR exists for: replaying the same idempotency key — via the
// Idempotency-Key header or the clientOrderId body field — returns the
// original order, marks the response as a replay, and grows NumOrders
// by exactly one.
func TestIdempotentReplayOverHTTP(t *testing.T) {
	c, store := newFixture(t)
	ctx := context.Background()
	rec, _ := c.UserByEmail(ctx, db.EmailFor(0))
	page, _ := c.Products(ctx, 1, 0, 1)
	items := []db.OrderItem{{ProductID: page.Products[0].ID, Quantity: 1}}

	cases := []struct {
		name   string
		req    OrderRequest
		header map[string]string
	}{
		{"header key", OrderRequest{UserID: rec.ID, Items: items}, map[string]string{"Idempotency-Key": "hdr-1"}},
		{"body key", OrderRequest{UserID: rec.ID, Items: items, ClientOrderID: "body-1"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := store.NumOrders()
			status, hdr, first := postOrderRaw(t, c.base, tc.req, tc.header)
			if status != http.StatusCreated {
				t.Fatalf("first placement status = %d", status)
			}
			if hdr.Get("Idempotent-Replay") != "" {
				t.Fatal("first placement flagged as replay")
			}
			for i := 0; i < 3; i++ {
				status, hdr, again := postOrderRaw(t, c.base, tc.req, tc.header)
				if status != http.StatusCreated || again.ID != first.ID {
					t.Fatalf("replay %d: status %d, order %d, want original %d", i, status, again.ID, first.ID)
				}
				if hdr.Get("Idempotent-Replay") != "true" {
					t.Fatalf("replay %d missing Idempotent-Replay header", i)
				}
			}
			if got := store.NumOrders(); got != before+1 {
				t.Fatalf("NumOrders = %d after replays, want %d", got, before+1)
			}
		})
	}
}

// TestIdempotencyHeaderWinsOverBody: when both key channels are set the
// header is authoritative, so proxies injecting Idempotency-Key behave
// predictably.
func TestIdempotencyHeaderWinsOverBody(t *testing.T) {
	c, store := newFixture(t)
	ctx := context.Background()
	rec, _ := c.UserByEmail(ctx, db.EmailFor(0))
	page, _ := c.Products(ctx, 1, 0, 1)
	items := []db.OrderItem{{ProductID: page.Products[0].ID, Quantity: 1}}

	before := store.NumOrders()
	_, _, first := postOrderRaw(t, c.base,
		OrderRequest{UserID: rec.ID, Items: items, ClientOrderID: "body-A"},
		map[string]string{"Idempotency-Key": "hdr-X"})
	// Same header, different body key: still a replay of the first.
	_, hdr, second := postOrderRaw(t, c.base,
		OrderRequest{UserID: rec.ID, Items: items, ClientOrderID: "body-B"},
		map[string]string{"Idempotency-Key": "hdr-X"})
	if second.ID != first.ID || hdr.Get("Idempotent-Replay") != "true" {
		t.Fatalf("header key not authoritative: first %d, second %d", first.ID, second.ID)
	}
	if got := store.NumOrders(); got != before+1 {
		t.Fatalf("NumOrders = %d, want %d", got, before+1)
	}
}

// TestIdempotencyKeyScopedPerUser: two users reusing the same raw key
// must place two distinct orders — the shard scopes keys by user.
func TestIdempotencyKeyScopedPerUser(t *testing.T) {
	c, store := newFixture(t)
	ctx := context.Background()
	a, _ := c.UserByEmail(ctx, db.EmailFor(0))
	b, _ := c.UserByEmail(ctx, db.EmailFor(1))
	page, _ := c.Products(ctx, 1, 0, 1)
	items := []db.OrderItem{{ProductID: page.Products[0].ID, Quantity: 1}}

	before := store.NumOrders()
	_, _, oa := postOrderRaw(t, c.base, OrderRequest{UserID: a.ID, Items: items, ClientOrderID: "shared"}, nil)
	_, hdr, ob := postOrderRaw(t, c.base, OrderRequest{UserID: b.ID, Items: items, ClientOrderID: "shared"}, nil)
	if oa.ID == ob.ID || hdr.Get("Idempotent-Replay") == "true" {
		t.Fatalf("key collided across users: %d vs %d", oa.ID, ob.ID)
	}
	if got := store.NumOrders(); got != before+2 {
		t.Fatalf("NumOrders = %d, want %d", got, before+2)
	}
}

// TestOrdersSincePagingOverHTTP: walking the paged feed reproduces the
// store's full order table exactly, in ID order.
func TestOrdersSincePagingOverHTTP(t *testing.T) {
	c, store := newFixture(t)
	ctx := context.Background()
	rec, _ := c.UserByEmail(ctx, db.EmailFor(2))
	page, _ := c.Products(ctx, 1, 0, 1)
	for i := 0; i < 15; i++ { // 8 seeded + 15 = 23 orders, not a multiple of the page size
		if _, err := c.PlaceOrder(ctx, rec.ID, []db.OrderItem{{ProductID: page.Products[0].ID, Quantity: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	full := store.AllOrders()
	if len(full) != 23 {
		t.Fatalf("store holds %d orders, want 23", len(full))
	}
	walked := walkOrders(t, c, 5)
	if len(walked) != len(full) {
		t.Fatalf("paged walk got %d orders, full feed %d", len(walked), len(full))
	}
	for i := range full {
		if walked[i].ID != full[i].ID {
			t.Fatalf("walk diverges from full feed at %d: %d vs %d", i, walked[i].ID, full[i].ID)
		}
	}
	// A hostile limit is clamped, not honored.
	hc := httpkit.NewClient(time.Second)
	var capped []db.Order
	if err := hc.GetJSON(ctx, fmt.Sprintf("%s/orders?sinceId=0&limit=%d", c.base, 1<<30), &capped); err != nil {
		t.Fatalf("huge limit: %v", err)
	}
	if len(capped) != 23 {
		t.Fatalf("clamped page = %d orders, want all 23", len(capped))
	}
}
