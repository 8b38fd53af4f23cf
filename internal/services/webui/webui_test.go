package webui

import (
	"context"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
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
	rec   *httptest.Server
	store *db.Store
	// categoryGets counts GET /categories calls persistence served.
	categoryGets atomic.Int64
	// imageGets counts GET /images calls the image service served.
	imageGets atomic.Int64
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
	persistMux := persistence.NewSharded(persistence.NewCluster([]*db.Store{store}), 0).Mux()
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
	f.rec = httptest.NewServer(recSvc.Mux())
	t.Cleanup(f.rec.Close)

	imgMux := imagesvc.New(0).Mux()
	f.img = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/images" {
			f.imageGets.Add(1)
		}
		imgMux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.img.Close)

	ui, err := New(Backends{
		Auth:        auth.NewClient(authSrv.URL, hc),
		Persistence: persistClient,
		Recommender: recommender.NewClient(f.rec.URL, hc),
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

// TestOneImageCallPerPage counts GET /images per page: a category page
// fetches its previews, and a product page its full image and strip
// icons, in one batch each; pages without images make none.
func TestOneImageCallPerPage(t *testing.T) {
	f := newFixture(t)
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	resp, err := client.PostForm(f.ui.URL+"/cart/add", url.Values{"productId": {strings.TrimPrefix(f.productPath(t), "/product/")}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, c := range []struct {
		path string
		want int64
	}{{"/category/1", 1}, {f.productPath(t), 1}, {"/", 0}, {"/cart", 0}, {"/category/1?page=9", 0}} {
		before := f.imageGets.Load()
		resp, err := client.Get(f.ui.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", c.path, resp.StatusCode)
		}
		if c.path == "/cart" && !strings.Contains(string(body), "<th>Total</th>") {
			t.Fatal("cart page lacks the added line")
		}
		if got := f.imageGets.Load() - before; got != c.want {
			t.Errorf("%s made %d image calls, want %d", c.path, got, c.want)
		}
	}
}

// TestProductImageSurvivesRecommenderOutage: with the Recommender down,
// a product page serves the cached strip beside its full image, both
// from the page's one image call.
func TestProductImageSurvivesRecommenderOutage(t *testing.T) {
	f := newFixture(t)
	path := f.productPath(t)
	id, _ := strconv.ParseInt(strings.TrimPrefix(path, "/product/"), 10, 64)
	full, err := imagesvc.Render(id, imagesvc.SizeFull.Pixels())
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := f.get(t, path)
	if !strings.Contains(fresh, "<img "+string(appendImgSrc(nil, full))) {
		t.Fatal("product page lacks its full image")
	}
	if n := strings.Count(fresh, "<img "); n < 2 {
		t.Fatalf("product page has %d images, want the full image and a strip", n)
	}
	f.rec.Close()
	before := f.imageGets.Load()
	code, stale := f.get(t, path)
	if code != 200 || stale != fresh {
		t.Fatalf("with the Recommender down the page = %d and differs from the cached strip's", code)
	}
	if got := f.imageGets.Load() - before; got != 1 {
		t.Fatalf("product page made %d image calls, want 1", got)
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
		if !strings.Contains(body, "<img "+string(appendImgSrc(nil, placeholderPNG))) {
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

// TestRenderFailsClosed: a template error, or a marker count that
// differs from the PNGs given, answers a plain 500 carrying none of the
// page.
func TestRenderFailsClosed(t *testing.T) {
	png := placeholderPNG
	page := productPage{
		Product:     db.Product{ID: 1, Name: "Tea"},
		Recommended: []productCard{{ID: 2, Name: "Other", png: png}},
		png:         png,
	}
	for _, c := range []struct {
		name, tmpl string
		data       any
		pngs       [][]byte
		want       int
	}{
		{"matching PNGs", "product", page, [][]byte{png, png}, http.StatusOK},
		{"unknown template", "nope", page, nil, http.StatusInternalServerError},
		{"execution error", "home", struct{}{}, nil, http.StatusInternalServerError},
		{"one PNG too few", "product", page, [][]byte{png}, http.StatusInternalServerError},
		{"one PNG too many", "product", page, [][]byte{png, png, png}, http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		render(rec, http.StatusOK, c.tmpl, c.data, c.pngs)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, rec.Code, c.want)
		}
		if c.want == http.StatusOK {
			continue
		}
		if body := rec.Body.String(); strings.Contains(body, "<") {
			t.Errorf("%s: 500 carries page bytes: %q", c.name, body)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: Content-Type %q, want text/plain", c.name, ct)
		}
	}
}

// TestPagesCarryContentLength: every page, error pages included, is sent
// with a Content-Length equal to its body and is not chunked.
func TestPagesCarryContentLength(t *testing.T) {
	f := newFixture(t)
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	resp, err := client.PostForm(f.ui.URL+"/cart/add", url.Values{"productId": {strings.TrimPrefix(f.productPath(t), "/product/")}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, c := range []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"home", func() (*http.Response, error) { return client.Get(f.ui.URL + "/") }, 200},
		{"category", func() (*http.Response, error) { return client.Get(f.ui.URL + "/category/1") }, 200},
		{"product", func() (*http.Response, error) { return client.Get(f.ui.URL + f.productPath(t)) }, 200},
		{"cart", func() (*http.Response, error) { return client.Get(f.ui.URL + "/cart") }, 200},
		{"login form", func() (*http.Response, error) { return client.Get(f.ui.URL + "/login") }, 200},
		{"failed login", func() (*http.Response, error) {
			return client.PostForm(f.ui.URL+"/login", url.Values{"email": {"nobody@teastore.test"}, "password": {"wrong"}})
		}, 401},
		{"unknown product", func() (*http.Response, error) { return client.Get(f.ui.URL + "/product/424242") }, 404},
	} {
		resp, err := c.do()
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", c.name, cl, len(body))
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v", c.name, resp.TransferEncoding)
		}
		if !strings.Contains(string(body), "</html>") {
			t.Errorf("%s: not a whole page", c.name)
		}
	}
}
