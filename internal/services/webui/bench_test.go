package webui

import (
	"io"
	"net/http"
	"testing"
)

// benchPage fetches one storefront page per iteration through real
// in-process backends over HTTP, backend round-trips and page render
// included.
func benchPage(b *testing.B, f *fixture, path string) {
	client := &http.Client{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(f.ui.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
}

// BenchmarkWebUIHomePage is the home page: one category fetch serves
// both the nav and the category cards, and there are no images.
func BenchmarkWebUIHomePage(b *testing.B) { benchPage(b, newFixture(b), "/") }

// BenchmarkWebUICategoryPage is a category page: a product listing and
// eight preview images, each spliced in as one src attribute.
func BenchmarkWebUICategoryPage(b *testing.B) { benchPage(b, newFixture(b), "/category/1") }

// BenchmarkWebUIProductPage is a product page: the full-size image and a
// recommendation strip of icons.
func BenchmarkWebUIProductPage(b *testing.B) {
	f := newFixture(b)
	benchPage(b, f, f.productPath(b))
}
