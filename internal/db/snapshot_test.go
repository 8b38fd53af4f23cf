package db

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCatalogReadsDuringWrites hammers lock-free catalog reads while
// writers publish new generations, asserting every read observes a
// consistent snapshot: pages stay ID-sorted and inside their category,
// email lookups always round-trip, and the category listing only grows.
func TestCatalogReadsDuringWrites(t *testing.T) {
	s := seeded(t)
	cats := s.Categories()
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers: grow one category and the user table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := s.AddProduct(Product{
				CategoryID: cats[0].ID, Name: fmt.Sprintf("w-%d", i), PriceCents: 100,
			}); err != nil {
				t.Errorf("AddProduct: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := s.AddUser(User{
				Email: fmt.Sprintf("race-%d@x", i), PasswordHash: "h",
			}); err != nil {
				t.Errorf("AddUser: %v", err)
				return
			}
		}
	}()

	// Readers: verify snapshot consistency on every read.
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				page, total, err := s.ProductsByCategory(cats[0].ID, i%5, 7)
				if err != nil {
					t.Errorf("ProductsByCategory: %v", err)
					return
				}
				if len(page) > total {
					t.Errorf("page %d longer than total %d", len(page), total)
					return
				}
				for j, p := range page {
					if p.CategoryID != cats[0].ID {
						t.Errorf("foreign product %d in category %d page", p.ID, cats[0].ID)
						return
					}
					if j > 0 && page[j-1].ID >= p.ID {
						t.Errorf("page not ID-sorted: %d then %d", page[j-1].ID, p.ID)
						return
					}
					if got, err := s.Product(p.ID); err != nil || got.ID != p.ID {
						t.Errorf("listed product %d not fetchable: %v", p.ID, err)
						return
					}
				}
				if u, err := s.UserByEmail(EmailFor(0)); err != nil || u.Email != EmailFor(0) {
					t.Errorf("seed user lookup failed mid-write: %v", err)
					return
				}
				if got := len(s.Categories()); got < len(cats) {
					t.Errorf("categories shrank: %d < %d", got, len(cats))
					return
				}
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// A snapshot taken after the barrier sees everything that was written.
	if s.NumProducts() <= 30 {
		t.Fatalf("writers made no progress: %d products", s.NumProducts())
	}
}

// TestProductsByIDsSemantics pins the batch read contract: request order
// preserved, missing IDs silently omitted, duplicates resolved each time.
func TestProductsByIDsSemantics(t *testing.T) {
	s := seeded(t)
	page, _, err := s.ProductsByCategory(s.Categories()[0].ID, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int64{page[2].ID, 999999, page[0].ID, page[0].ID}
	got := s.ProductsByIDs(ids)
	if len(got) != 3 {
		t.Fatalf("batch returned %d products, want 3 (missing omitted, dup kept)", len(got))
	}
	if got[0].ID != page[2].ID || got[1].ID != page[0].ID || got[2].ID != page[0].ID {
		t.Fatalf("batch order not request order: %v", got)
	}
	if out := s.ProductsByIDs(nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d products", len(out))
	}
}

// BenchmarkStoreCatalogRead measures the per-page catalog read mix the
// WebUI drives through persistence: one category listing, one product
// page, two product lookups. The snapshot design should keep this path
// allocation-free apart from the error-free lookups themselves.
func BenchmarkStoreCatalogRead(b *testing.B) {
	s := NewStore()
	if err := s.Generate(GenerateSpec{
		Categories: 6, ProductsPerCategory: 100, Users: 100, SeedOrders: 0, Seed: 1,
	}, func(p, salt string) string { return p }); err != nil {
		b.Fatal(err)
	}
	cats := s.Categories()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			_ = s.Categories()
			page, _, err := s.ProductsByCategory(cats[i%len(cats)].ID, (i%3)*8, 8)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Product(page[0].ID); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Product(page[len(page)-1].ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCatalogReadAllocFree pins the page-mix read at zero allocations:
// the snapshot design hands out shared immutable slices, so a catalog
// page costs pointer loads, not copies.
func TestCatalogReadAllocFree(t *testing.T) {
	s := seeded(t)
	cats := s.Categories()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		_ = s.Categories()
		page, _, err := s.ProductsByCategory(cats[i%len(cats)].ID, 0, 8)
		if err != nil || len(page) == 0 {
			t.Fatalf("bad page: %v", err)
		}
		if _, err := s.Product(page[0].ID); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Product(page[len(page)-1].ID); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("catalog page-mix read allocs/op = %.1f, want 0", allocs)
	}
}
