// Quickstart boots the full TeaStore in-process and walks the public API:
// discover services, log in, browse the catalog, fetch a batch of images,
// get recommendations, and place an order.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/services/auth"
	imagesvc "repro/internal/services/image"
	"repro/internal/services/persistence"
	"repro/internal/services/recommender"
	"repro/internal/teastore"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Boot all six services on loopback with a small catalog.
	stack, err := teastore.Start(teastore.Config{
		Catalog: db.GenerateSpec{
			Categories: 3, ProductsPerCategory: 20, Users: 10, SeedOrders: 60, Seed: 42,
		},
		Algorithm: "coocc",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Shutdown(context.Background())

	fmt.Println("services up:")
	for name, url := range stack.Services() {
		fmt.Printf("  %-12s %s\n", name, url)
	}

	hc := httpkit.NewClient(10 * time.Second)
	store := persistence.NewClient(stack.PersistenceURL, hc)
	authc := auth.NewClient(stack.AuthURL, hc)
	recs := recommender.NewClient(stack.RecommenderURL, hc)
	images := imagesvc.NewClient(stack.ImageURL, hc)

	// Log in with a generated demo account.
	login, err := authc.Login(ctx, db.EmailFor(3), db.PasswordFor(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlogged in as %s (user %d), token expires %s\n",
		login.Email, login.UserID, login.Expires.Format(time.Kitchen))

	// Browse.
	cats, err := store.Categories(ctx)
	if err != nil {
		log.Fatal(err)
	}
	page, err := store.Products(ctx, cats[0].ID, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s has %d products; first three:\n", cats[0].Name, page.Total)
	for _, p := range page.Products {
		fmt.Printf("  #%d %-40s $%d.%02d\n", p.ID, p.Name, p.PriceCents/100, p.PriceCents%100)
	}

	// Product images: a preview and an icon in one batch call.
	p0 := page.Products[0]
	pngs, err := images.Images(ctx, []imagesvc.Item{{ID: p0.ID, Size: imagesvc.SizePreview}, {ID: p0.ID, Size: imagesvc.SizeIcon}})
	if err != nil || pngs[0] == nil || pngs[1] == nil {
		log.Fatalf("images of #%d: %v", p0.ID, err)
	}
	fmt.Printf("\nrendered %s in one call: preview %d, icon %d PNG bytes\n", p0.Name, len(pngs[0]), len(pngs[1]))

	// Recommendations for the first product.
	recommended, err := recs.Recommend(ctx, login.UserID, []int64{page.Products[0].ID}, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncustomers who bought it also bought:")
	for _, id := range recommended {
		p, err := store.Product(ctx, id)
		if err != nil {
			continue
		}
		fmt.Printf("  #%d %s\n", p.ID, p.Name)
	}

	// Place an order.
	order, err := store.PlaceOrder(ctx, login.UserID, []db.OrderItem{
		{ProductID: page.Products[0].ID, Quantity: 2},
		{ProductID: page.Products[1].ID, Quantity: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplaced order #%d — total $%d.%02d\n",
		order.ID, order.TotalCents/100, order.TotalCents%100)
}
