package webui

import (
	"bytes"
	"encoding/base64"
	"html/template"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// oldImgMarkup is the markup every <img> tag had before images were
// spliced in as pre-escaped attributes: html/template escaped the whole
// base64 payload on every render.
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

// payloadOf undoes imgSrc's escaping: the raw base64 the old markup
// interpolated.
func payloadOf(attr template.HTMLAttr) string {
	s := strings.TrimPrefix(string(attr), imgPrefix)
	s = strings.TrimSuffix(s, `"`)
	return strings.ReplaceAll(s, "&#43;", "+")
}

// ImageB64 feeds oldImgMarkup from today's card data.
func (c productCard) ImageB64() string { return payloadOf(c.Img) }

// ImageB64 feeds oldImgMarkup from today's product page data.
func (p productPage) ImageB64() string { return payloadOf(p.Img) }

// serve runs one request through the WebUI in the calling goroutine, so
// a test may swap pageTemplates between requests.
func (f *fixture) serve(t *testing.T, req *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	f.svc.Mux().ServeHTTP(rec, req)
	return rec
}

// TestPagesMatchReferenceTemplate renders the image-bearing pages and
// the cart through the spliced templates and through the old markup,
// with images served and with the image service down, and requires the
// same bytes.
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
			spliced := pageTemplates
			pageTemplates = ref
			want := f.serve(t, req())
			pageTemplates = spliced
			if got.Code != 200 || want.Code != 200 {
				t.Fatalf("%s %s: status %d spliced, %d reference", mode, name, got.Code, want.Code)
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
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

// TestImgSrcMatchesTemplateEscaping checks imgSrc against html/template's
// own escaping of the old markup over random payloads of every length
// mod 3, including the empty one and payloads that are all '+'.
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
		if err := spliced.Execute(&got, imgSrc(png)); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%d-byte payload:\n got %s\nwant %s", len(png), got.String(), want.String())
		}
	}
}

// TestImgSrcAllocCeiling pins imgSrc at one allocation, the attribute
// itself: the encode buffer comes from the pool.
func TestImgSrcAllocCeiling(t *testing.T) {
	png := make([]byte, 24<<10)
	rand.New(rand.NewSource(2)).Read(png)
	if allocs := testing.AllocsPerRun(100, func() { imgSrc(png) }); allocs > 1 {
		t.Fatalf("imgSrc = %.1f allocs/op, want ≤ 1", allocs)
	}
}
