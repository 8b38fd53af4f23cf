package webui

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/services/auth"
	imagesvc "repro/internal/services/image"
	"repro/internal/services/persistence"
	"repro/internal/services/recommender"
)

// fixture wires a WebUI to real in-process backends over httptest.
type fixture struct {
	svc   *Service
	ui    *httptest.Server
	img   *httptest.Server
	store *db.Store
	// categoryGets counts GET /categories calls persistence served.
	categoryGets atomic.Int64
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	store := db.NewStore()
	if err := store.Generate(db.GenerateSpec{
		Categories: 2, ProductsPerCategory: 10, Users: 3, SeedOrders: 15, Seed: 5,
	}, auth.HashPassword); err != nil {
		t.Fatal(err)
	}

	f := &fixture{store: store}
	persistMux := persistence.New(store).Mux()
	persistSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/categories" {
			f.categoryGets.Add(1)
		}
		persistMux.ServeHTTP(w, r)
	}))
	t.Cleanup(persistSrv.Close)
	hc := httpkit.NewClient(5 * time.Second)
	persistClient := persistence.NewClient(persistSrv.URL, hc)

	authSvc, err := auth.New([]byte("0123456789abcdef"), persistClient)
	if err != nil {
		t.Fatal(err)
	}
	authSrv := httptest.NewServer(authSvc.Mux())
	t.Cleanup(authSrv.Close)

	recSvc, err := recommender.New("popularity", persistClient)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recSvc.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	recSrv := httptest.NewServer(recSvc.Mux())
	t.Cleanup(recSrv.Close)

	f.img = httptest.NewServer(imagesvc.New(0).Mux())
	t.Cleanup(f.img.Close)

	ui, err := New(Backends{
		Auth:        auth.NewClient(authSrv.URL, hc),
		Persistence: persistClient,
		Recommender: recommender.NewClient(recSrv.URL, hc),
		Image:       imagesvc.NewClient(f.img.URL, hc),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.svc = ui
	f.ui = httptest.NewServer(ui.Mux())
	t.Cleanup(f.ui.Close)
	return f
}

// productPath is the page of the first product in the first category.
func (f *fixture) productPath(t testing.TB) string {
	t.Helper()
	products, _, err := f.store.ProductsByCategory(f.store.Categories()[0].ID, 0, 1)
	if err != nil || len(products) == 0 {
		t.Fatalf("no product to view: %v", err)
	}
	return "/product/" + int64Str(products[0].ID)
}

func (f *fixture) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(f.ui.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestBackendsValidation(t *testing.T) {
	cases := []Backends{
		{},
		{Auth: &auth.Client{}},
		{Auth: &auth.Client{}, Persistence: &persistence.Client{}},
		{Auth: &auth.Client{}, Persistence: &persistence.Client{}, Recommender: &recommender.Client{}},
	}
	for i, b := range cases {
		if _, err := New(b); err == nil {
			t.Errorf("case %d: incomplete backends accepted", i)
		}
	}
}

func TestHomeListsCategories(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/")
	if code != 200 {
		t.Fatalf("home = %d", code)
	}
	for _, cat := range f.store.Categories() {
		if !strings.Contains(body, cat.Name) {
			t.Fatalf("home missing category %q", cat.Name)
		}
	}
}

func TestHomeFetchesCategoriesOnce(t *testing.T) {
	f := newFixture(t)
	for i := 1; i <= 3; i++ {
		if code, _ := f.get(t, "/"); code != 200 {
			t.Fatalf("home = %d", code)
		}
		if got := f.categoryGets.Load(); got != int64(i) {
			t.Fatalf("%d home pages made %d GET /categories calls, want %d", i, got, i)
		}
	}
}

func TestImagesDegradeToPlaceholder(t *testing.T) {
	f := newFixture(t)
	f.img.Close()
	for _, path := range []string{f.productPath(t), "/category/1"} {
		code, body := f.get(t, path)
		if code != 200 {
			t.Fatalf("%s = %d with the image service down", path, code)
		}
		if !strings.Contains(body, "<img "+string(placeholderImg)) {
			t.Errorf("%s: no placeholder image", path)
		}
		if strings.Contains(body, `base64,"`) {
			t.Errorf("%s: empty data URI (a broken image tag)", path)
		}
	}
}

func TestCategoryPaginationBounds(t *testing.T) {
	f := newFixture(t)
	// 10 products, 8 per page → page 0 has next, page 1 has prev only.
	code, page0 := f.get(t, "/category/1?page=0")
	if code != 200 || !strings.Contains(page0, "next →") {
		t.Fatalf("page 0 = %d; next link missing", code)
	}
	if strings.Contains(page0, "← previous") {
		t.Fatal("page 0 should not offer previous")
	}
	_, page1 := f.get(t, "/category/1?page=1")
	if !strings.Contains(page1, "← previous") || strings.Contains(page1, "next →") {
		t.Fatal("page 1 navigation wrong")
	}
	// Negative page clamps to 0.
	code, _ = f.get(t, "/category/1?page=-3")
	if code != 200 {
		t.Fatalf("negative page = %d", code)
	}
}

func TestProductPageEscapesContent(t *testing.T) {
	f := newFixture(t)
	// Insert a product with HTML in the name: the template must escape it.
	cats := f.store.Categories()
	p, err := f.store.AddProduct(db.Product{
		CategoryID: cats[0].ID, Name: "<script>alert(1)</script>", PriceCents: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body := f.get(t, "/product/"+int64Str(p.ID))
	if code != 200 {
		t.Fatalf("product = %d", code)
	}
	if strings.Contains(body, "<script>alert(1)</script>") {
		t.Fatal("XSS: product name not escaped")
	}
	if !strings.Contains(body, "&lt;script&gt;") {
		t.Fatal("escaped name missing entirely")
	}
}

func TestPriceFormatting(t *testing.T) {
	cases := map[int64]string{
		100:   "$1.00",
		95:    "$0.95",
		12345: "$123.45",
		10001: "$100.01",
	}
	for cents, want := range cases {
		if got := price(cents); got != want {
			t.Errorf("price(%d) = %q, want %q", cents, got, want)
		}
	}
}

func TestCartAddUnknownProduct(t *testing.T) {
	f := newFixture(t)
	resp, err := http.PostForm(f.ui.URL+"/cart/add", map[string][]string{"productId": {"424242"}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("ghost product add = %d, want 404", resp.StatusCode)
	}
}

func TestProfileRedirectsAnonymous(t *testing.T) {
	f := newFixture(t)
	client := &http.Client{
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	resp, err := client.Get(f.ui.URL + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("anonymous profile = %d, want 303", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/login" {
		t.Fatalf("redirect to %q, want /login", loc)
	}
}

func int64Str(v int64) string { return strconv.FormatInt(v, 10) }
