package persistence

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/services/auth"
)

func newFixture(t *testing.T) (*Client, *db.Store) {
	t.Helper()
	store := db.NewStore()
	if err := store.Generate(db.GenerateSpec{
		Categories: 2, ProductsPerCategory: 5, Users: 3, SeedOrders: 8, Seed: 1,
	}, auth.HashPassword); err != nil {
		t.Fatal(err)
	}
	svc := NewSharded(NewCluster([]*db.Store{store}), 0)
	srv := httptest.NewServer(svc.Mux())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, httpkit.NewClient(5*time.Second)), store
}

// walkOrders reads the whole order feed the way its consumers do: page by
// page from the last ID seen, until an empty page.
func walkOrders(t *testing.T, c *Client, pageSize int) []db.Order {
	t.Helper()
	var walked []db.Order
	since := int64(0)
	for {
		batch, err := c.OrdersSince(context.Background(), since, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			return walked
		}
		if len(batch) > pageSize {
			t.Fatalf("page of %d exceeds requested limit %d", len(batch), pageSize)
		}
		walked = append(walked, batch...)
		since = batch[len(batch)-1].ID
	}
}

func TestCatalogEndpoints(t *testing.T) {
	c, _ := newFixture(t)
	ctx := context.Background()

	cats, err := c.Categories(ctx)
	if err != nil || len(cats) != 2 {
		t.Fatalf("Categories = %v, %v", cats, err)
	}
	cat, err := c.Category(ctx, cats[0].ID)
	if err != nil || cat.Name != cats[0].Name {
		t.Fatalf("Category = %v, %v", cat, err)
	}
	if _, err := c.Category(ctx, 9999); !httpkit.IsStatus(err, 404) {
		t.Fatalf("missing category err = %v", err)
	}

	page, err := c.Products(ctx, cats[0].ID, 0, 3)
	if err != nil || len(page.Products) != 3 || page.Total != 5 {
		t.Fatalf("Products = %+v, %v", page, err)
	}
	p, err := c.Product(ctx, page.Products[0].ID)
	if err != nil || p.Name != page.Products[0].Name {
		t.Fatalf("Product = %v, %v", p, err)
	}
	if _, err := c.Product(ctx, 424242); !httpkit.IsStatus(err, 404) {
		t.Fatalf("missing product err = %v", err)
	}
}

func TestUserEndpoints(t *testing.T) {
	c, _ := newFixture(t)
	ctx := context.Background()
	rec, err := c.UserByEmail(ctx, db.EmailFor(0))
	if err != nil || rec.ID == 0 || rec.PasswordHash == "" {
		t.Fatalf("UserByEmail = %+v, %v", rec, err)
	}
	u, err := c.User(ctx, rec.ID)
	if err != nil || u.Email != db.EmailFor(0) {
		t.Fatalf("User = %v, %v", u, err)
	}
	if _, err := c.UserByEmail(ctx, "ghost@x"); !httpkit.IsStatus(err, 404) {
		t.Fatalf("ghost user err = %v", err)
	}
}

func TestOrderEndpoints(t *testing.T) {
	c, store := newFixture(t)
	ctx := context.Background()
	rec, _ := c.UserByEmail(ctx, db.EmailFor(1))
	page, _ := c.Products(ctx, 1, 0, 2)

	before := store.NumOrders()
	order, err := c.PlaceOrder(ctx, rec.ID, []db.OrderItem{
		{ProductID: page.Products[0].ID, Quantity: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if order.TotalCents != 2*page.Products[0].PriceCents {
		t.Fatalf("total = %d", order.TotalCents)
	}
	if store.NumOrders() != before+1 {
		t.Fatal("order not persisted")
	}
	mine, err := c.Orders(ctx, rec.ID)
	if err != nil || len(mine) == 0 || mine[0].ID != order.ID {
		t.Fatalf("Orders = %v, %v", mine, err)
	}
	if all := walkOrders(t, c, 4); len(all) != store.NumOrders() {
		t.Fatalf("paged feed holds %d orders, store %d", len(all), store.NumOrders())
	}
	// Write validation surfaces as 4xx.
	if _, err := c.PlaceOrder(ctx, rec.ID, nil); !httpkit.IsStatus(err, 400) {
		t.Fatalf("empty order err = %v", err)
	}
	if _, err := c.PlaceOrder(ctx, 99999, []db.OrderItem{{ProductID: page.Products[0].ID, Quantity: 1}}); !httpkit.IsStatus(err, 404) {
		t.Fatalf("ghost user order err = %v", err)
	}
}

func TestGenerateEndpoint(t *testing.T) {
	c, store := newFixture(t)
	ctx := context.Background()
	spec := db.GenerateSpec{Categories: 3, ProductsPerCategory: 4, Users: 2, SeedOrders: 5, Seed: 9}
	if err := c.Generate(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if store.NumProducts() != 12 || store.NumUsers() != 2 {
		t.Fatalf("regenerated store wrong: %d products, %d users",
			store.NumProducts(), store.NumUsers())
	}
	// Auth hash compatibility: generated users authenticate with the
	// published demo passwords.
	u, _ := store.UserByEmail(db.EmailFor(0))
	if auth.HashPassword(db.PasswordFor(0), u.Salt) != u.PasswordHash {
		t.Fatal("generated hashes incompatible with auth.HashPassword")
	}
}

func TestBadPathParameters(t *testing.T) {
	c, _ := newFixture(t)
	ctx := context.Background()
	hc := httpkit.NewClient(time.Second)
	base := c.base
	for _, path := range []string{"/categories/abc", "/products/xyz", "/users/nan", "/users/nan/orders", "/categories/nan/products"} {
		if err := hc.GetJSON(ctx, base+path, nil); !httpkit.IsStatus(err, 400) {
			t.Errorf("%s err = %v, want 400", path, err)
		}
	}
}
