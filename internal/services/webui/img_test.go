package webui

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"html/template"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	imagesvc "repro/internal/services/image"
)

// oldImgMarkup is the markup every <img> tag had before images were
// spliced in at markers: html/template escaped the whole base64 payload
// on every render.
const oldImgMarkup = `<img src="data:image/png;base64,{{.ImageB64}}"`

// referenceTemplates is pageSource with every image back in oldImgMarkup,
// the oracle the spliced attributes are checked against.
func referenceTemplates(t testing.TB) *template.Template {
	t.Helper()
	const spliced = `<img {{.Img}}`
	if n := strings.Count(pageSource, spliced); n != 3 {
		t.Fatalf("pageSource has %d spliced images, want 3", n)
	}
	src := strings.ReplaceAll(pageSource, spliced, oldImgMarkup)
	return template.Must(template.New("layout").Parse(src))
}

// ImageB64 feeds oldImgMarkup the card's PNG bytes.
func (c productCard) ImageB64() string { return base64.StdEncoding.EncodeToString(c.png) }

// ImageB64 feeds oldImgMarkup the product page's PNG bytes.
func (p productPage) ImageB64() string { return base64.StdEncoding.EncodeToString(p.png) }

// serve runs one request through the WebUI in the calling goroutine, so
// a test may swap pageTemplates between requests.
func (f *fixture) serve(t *testing.T, req *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	f.svc.Mux().ServeHTTP(rec, req)
	return rec
}

// referencePage renders req's page through ref. It serves req once with
// templates that only record the page's name and data, then executes
// ref on that data.
func (f *fixture) referencePage(t *testing.T, ref *template.Template, req *http.Request) []byte {
	t.Helper()
	var name string
	var data any
	var src strings.Builder
	for _, tmpl := range pageTemplates.Templates() {
		fmt.Fprintf(&src, `{{define %q}}{{record %q .}}{{end}}`, tmpl.Name(), tmpl.Name())
	}
	record := template.Must(template.New("record").Funcs(template.FuncMap{
		"record": func(n string, d any) string { name, data = n, d; return "" },
	}).Parse(src.String()))
	spliced := pageTemplates
	pageTemplates = record
	f.serve(t, req)
	pageTemplates = spliced
	if name == "" {
		t.Fatalf("%s rendered no page", req.URL)
	}
	var want bytes.Buffer
	if err := ref.ExecuteTemplate(&want, name, data); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// TestPagesMatchReferenceTemplate renders the image-bearing pages and
// the cart through render and through the old markup, with images served
// and with the image service down, and requires the same bytes.
func TestPagesMatchReferenceTemplate(t *testing.T) {
	f := newFixture(t)
	ref := referenceTemplates(t)
	add := httptest.NewRequest(http.MethodPost, "/cart/add",
		strings.NewReader(url.Values{"productId": {strings.TrimPrefix(f.productPath(t), "/product/")}}.Encode()))
	add.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	cookies := f.serve(t, add).Result().Cookies()
	if len(cookies) == 0 {
		t.Fatal("adding to the cart set no cookie")
	}
	pages := map[string]func() *http.Request{
		"category": func() *http.Request { return httptest.NewRequest(http.MethodGet, "/category/1", nil) },
		"product":  func() *http.Request { return httptest.NewRequest(http.MethodGet, f.productPath(t), nil) },
		"cart": func() *http.Request {
			req := httptest.NewRequest(http.MethodGet, "/cart", nil)
			for _, c := range cookies {
				req.AddCookie(c)
			}
			return req
		},
	}
	compare := func(mode string) {
		for name, req := range pages {
			got := f.serve(t, req())
			if got.Code != 200 {
				t.Fatalf("%s %s: status %d", mode, name, got.Code)
			}
			if !bytes.Equal(got.Body.Bytes(), f.referencePage(t, ref, req())) {
				t.Errorf("%s %s page differs from the reference template", mode, name)
			}
			if name != "cart" && !strings.Contains(got.Body.String(), `<img src="data:image/png;base64,`) {
				t.Errorf("%s %s page has no image", mode, name)
			}
		}
	}
	compare("served")
	f.img.Close()
	compare("placeholder")
}

// TestImgSrcMatchesTemplateEscaping checks appendImgSrc against
// html/template's own escaping of the old markup over random payloads of
// every length mod 3, including the empty one and payloads that are all
// '+'.
func TestImgSrcMatchesTemplateEscaping(t *testing.T) {
	old := template.Must(template.New("img").Parse(`<img src="data:image/png;base64,{{.}}">`))
	spliced := template.Must(template.New("img").Parse(`<img {{.}}>`))
	rng := rand.New(rand.NewSource(1))
	corpus := [][]byte{nil, {}, bytes.Repeat([]byte{0xfb, 0xef, 0xbe}, 100)}
	for n := 1; n < 200; n++ {
		b := make([]byte, n)
		rng.Read(b)
		corpus = append(corpus, b)
	}
	if !strings.Contains(base64.StdEncoding.EncodeToString(corpus[2]), "++++") {
		t.Fatal("the '+'-heavy payload encodes to no '+'")
	}
	for _, png := range corpus {
		var want, got strings.Builder
		if err := old.Execute(&want, base64.StdEncoding.EncodeToString(png)); err != nil {
			t.Fatal(err)
		}
		if err := spliced.Execute(&got, template.HTMLAttr(appendImgSrc(nil, png))); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%d-byte payload:\n got %s\nwant %s", len(png), got.String(), want.String())
		}
	}
}

// TestImgSrcAllocCeiling pins appendImgSrc into a sized dst at zero
// allocations: the encode buffer comes from the pool.
func TestImgSrcAllocCeiling(t *testing.T) {
	png := make([]byte, 24<<10)
	rand.New(rand.NewSource(2)).Read(png)
	dst := make([]byte, 0, 2*len(png))
	if allocs := testing.AllocsPerRun(100, func() { appendImgSrc(dst, png) }); allocs > 0 {
		t.Fatalf("appendImgSrc = %.1f allocs/op, want 0", allocs)
	}
}

// oldImgSrc is png's src attribute as html/template escapes the old
// markup.
func oldImgSrc(t *testing.T, png []byte) string {
	t.Helper()
	var b strings.Builder
	old := template.Must(template.New("img").Parse(`src="data:image/png;base64,{{.}}"`))
	if err := old.Execute(&b, base64.StdEncoding.EncodeToString(png)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// tileImg matches a grid tile's link and the src attribute of its image.
var tileImg = regexp.MustCompile(`<a href="/product/(\d+)"><img (src="[^"]*")`)

// TestCatalogTextCannotForgeImageSlot adds a product whose name and
// description carry NUL, the byte that marks image slots. Its category
// and product pages must hold no NUL, carry each product's own image in
// order, and match the old markup.
func TestCatalogTextCannotForgeImageSlot(t *testing.T) {
	f := newFixture(t)
	ref := referenceTemplates(t)
	cat := f.store.Categories()[0]
	p, err := f.store.AddProduct(db.Product{
		CategoryID: cat.ID, Name: "Nul\x00Tea", Description: "\x00steep\x00", PriceCents: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, total, err := f.store.ProductsByCategory(cat.ID, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	render := func(id int64, size imagesvc.Size) string {
		png, err := imagesvc.Render(id, size.Pixels())
		if err != nil {
			t.Fatal(err)
		}
		return oldImgSrc(t, png)
	}
	// checkTiles requires each tile in body to carry its product's image
	// of size, and returns how many it checked.
	checkTiles := func(body string, size imagesvc.Size) int {
		tiles := tileImg.FindAllStringSubmatch(body, -1)
		for _, m := range tiles {
			id, _ := strconv.ParseInt(m[1], 10, 64)
			if m[2] != render(id, size) {
				t.Errorf("tile of product %d carries another image", id)
			}
		}
		return len(tiles)
	}

	categoryPath := fmt.Sprintf("/category/%d?page=%d", cat.ID, (total-1)/productsPerPage)
	productPath := "/product/" + int64Str(p.ID)
	for _, path := range []string{categoryPath, productPath} {
		got := f.serve(t, httptest.NewRequest(http.MethodGet, path, nil))
		body := got.Body.String()
		if got.Code != 200 {
			t.Fatalf("%s = %d", path, got.Code)
		}
		if strings.IndexByte(body, 0) >= 0 {
			t.Errorf("%s holds a NUL byte", path)
		}
		if !strings.Contains(body, "Nul\ufffdTea") {
			t.Errorf("%s lacks the product's escaped name", path)
		}
		imgs := strings.Count(body, "<img ")
		if path == categoryPath {
			if !strings.Contains(body, `<a href="`+productPath+`"><img `) {
				t.Fatalf("%s lacks the product's tile", path)
			}
			if n := checkTiles(body, imagesvc.SizePreview); n != imgs {
				t.Errorf("%s: checked %d of %d images", path, n, imgs)
			}
		} else {
			if !strings.HasPrefix(body[strings.Index(body, "<img "):], "<img "+render(p.ID, imagesvc.SizeFull)+` alt="`) {
				t.Errorf("%s: the first image is not the product's full image", path)
			}
			if n := checkTiles(body, imagesvc.SizeIcon); n+1 != imgs {
				t.Errorf("%s: checked %d of %d images", path, n+1, imgs)
			}
		}
		if !bytes.Equal(got.Body.Bytes(), f.referencePage(t, ref, httptest.NewRequest(http.MethodGet, path, nil))) {
			t.Errorf("%s differs from the reference template", path)
		}
	}
}

// TestConcurrentPagesMatchReference serves category and product pages
// over distinct products from concurrent goroutines. Each page reads its
// images into a pooled batch body; a body released or reused while a
// page still splices from it would show as a page that differs from the
// old markup's.
func TestConcurrentPagesMatchReference(t *testing.T) {
	f := newFixture(t)
	ref := referenceTemplates(t)
	want := map[string][]byte{}
	for _, c := range f.store.Categories() {
		_, total, err := f.store.ProductsByCategory(c.ID, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for page := 0; page*productsPerPage < total; page++ {
			want[fmt.Sprintf("/category/%d?page=%d", c.ID, page)] = nil
		}
		products, _, err := f.store.ProductsByCategory(c.ID, 0, total)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range products {
			want["/product/"+int64Str(p.ID)] = nil
		}
	}
	paths := make([]string, 0, len(want))
	for path := range want {
		want[path] = f.referencePage(t, ref, httptest.NewRequest(http.MethodGet, path, nil))
		paths = append(paths, path)
	}
	const workers = 8
	mux := f.svc.Mux()
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range paths {
				path := paths[(w*7+i)%len(paths)]
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want[path]) {
					errs <- fmt.Sprintf("%s: status %d, page differs from the reference template", path, rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
