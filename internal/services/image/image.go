// Package image implements TeaStore's ImageProvider service: it renders
// deterministic product artwork as PNG at several sizes and serves it
// through a byte-bounded LRU cache. Rendering is genuinely CPU-heavy
// (per-pixel generation plus PNG compression), matching the service's
// role as one of the workload's dominant CPU consumers.
package image

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/httpkit"
)

// Size names a product image variant.
type Size string

// The supported variants and their pixel edge lengths.
const (
	SizeIcon    Size = "icon"    // 64 px
	SizePreview Size = "preview" // 125 px
	SizeLarge   Size = "large"   // 256 px
	SizeFull    Size = "full"    // 400 px
)

// Pixels returns the edge length of a size, or 0 for unknown sizes.
func (s Size) Pixels() int {
	switch s {
	case SizeIcon:
		return 64
	case SizePreview:
		return 125
	case SizeLarge:
		return 256
	case SizeFull:
		return 400
	default:
		return 0
	}
}

// Sizes lists the supported variants.
func Sizes() []Size { return []Size{SizeIcon, SizePreview, SizeLarge, SizeFull} }

// splitmix produces the deterministic per-product parameter stream.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// renderParams derives the deterministic palette and geometry of one
// product's artwork.
type renderParams struct {
	base, accent  color.RGBA
	fx, fy, rings float64
}

func paramsFor(productID int64) renderParams {
	h1 := splitmix(uint64(productID))
	h2 := splitmix(h1)
	h3 := splitmix(h2)
	return renderParams{
		base:   color.RGBA{R: uint8(h1), G: uint8(h1 >> 8), B: uint8(h1 >> 16), A: 255},
		accent: color.RGBA{R: uint8(h2), G: uint8(h2 >> 8), B: uint8(h2 >> 16), A: 255},
		fx:     2 + float64(h3%5),
		fy:     2 + float64((h3>>8)%5),
		rings:  3 + float64((h3>>16)%6),
	}
}

// pixPool recycles pixel backing slices across renders; a full-size
// buffer serves every smaller size too.
var pixPool = sync.Pool{}

// floatPool recycles the per-axis precompute scratch.
var floatPool = sync.Pool{}

func getScratch(pool *sync.Pool, n int) []float64 {
	if p, ok := pool.Get().(*[]float64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

// pngBufPool feeds png.Encoder's BufferPool hook so the encoder's large
// internal state (zlib window, row buffers) is reused across encodes.
type pngBufPool struct{ p sync.Pool }

func (bp *pngBufPool) Get() *png.EncoderBuffer {
	b, _ := bp.p.Get().(*png.EncoderBuffer)
	return b
}
func (bp *pngBufPool) Put(b *png.EncoderBuffer) { bp.p.Put(b) }

var encoderPool = &pngBufPool{}

// outBufPool recycles the PNG output buffers.
var outBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// pngEncoder trades a few percent of compression for encode speed —
// synthetic artwork is re-rendered constantly under cache pressure, and
// the paper attributes the image service's scaling ceiling to exactly
// this CPU burn.
var pngEncoder = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: encoderPool}

// Render generates the artwork for a product at the given edge length:
// a banded radial interference pattern whose palette and geometry derive
// from the product ID. Identical inputs produce identical bytes. Pixels
// are written straight into the RGBA backing slice (no per-pixel
// bounds-checked SetRGBA calls), the row/column trigonometry is hoisted
// out of the pixel loop, and the pixel and PNG buffers are pooled;
// RenderReference (render_test.go) keeps the original implementation as
// the equivalence oracle.
func Render(productID int64, px int) ([]byte, error) {
	if px <= 0 || px > 1024 {
		return nil, fmt.Errorf("image: invalid size %d", px)
	}
	p := paramsFor(productID)

	need := px * px * 4
	var pix []uint8
	if v, ok := pixPool.Get().(*[]uint8); ok && cap(*v) >= need {
		pix = (*v)[:need]
	} else {
		pix = make([]uint8, need)
	}
	defer pixPool.Put(&pix)
	img := &image.RGBA{Pix: pix, Stride: px * 4, Rect: image.Rect(0, 0, px, px)}

	// The weight field separates per axis: sin(fx·π·u) depends only on x,
	// cos(fy·π·v) only on y. Precompute both plus u² for the radial term.
	sinX := getScratch(&floatPool, px)
	defer floatPool.Put(&sinX)
	uu := getScratch(&floatPool, px)
	defer floatPool.Put(&uu)
	// u, v, and every weight term use the exact expressions of
	// RenderReference (division, operator association) so the fast path
	// rounds identically and stays pixel-for-pixel equal.
	for i := 0; i < px; i++ {
		u := float64(i)/float64(px) - 0.5
		sinX[i] = 0.25 * math.Sin(p.fx*math.Pi*u)
		uu[i] = u * u
	}
	rings2pi := p.rings * 2 * math.Pi
	for y := 0; y < px; y++ {
		v := float64(y)/float64(px) - 0.5
		vv := v * v
		cosY := math.Cos(p.fy * math.Pi * v)
		row := pix[y*img.Stride : y*img.Stride+px*4 : y*img.Stride+px*4]
		for x := 0; x < px; x++ {
			r := math.Sqrt(uu[x] + vv)
			w := 0.5 + sinX[x]*cosY + 0.25*math.Sin(rings2pi*r)
			if w < 0 {
				w = 0
			}
			if w > 1 {
				w = 1
			}
			o := x * 4
			row[o] = lerp(p.base.R, p.accent.R, w)
			row[o+1] = lerp(p.base.G, p.accent.G, w)
			row[o+2] = lerp(p.base.B, p.accent.B, w)
			row[o+3] = 255
		}
	}

	buf := outBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer outBufPool.Put(buf)
	if err := pngEncoder.Encode(buf, img); err != nil {
		return nil, fmt.Errorf("image: encoding: %w", err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

func lerp(a, b uint8, w float64) uint8 {
	return uint8(float64(a)*(1-w) + float64(b)*w)
}

// flightCall is one in-progress render that concurrent cache misses for
// the same key wait on instead of rendering redundantly.
type flightCall struct {
	done    chan struct{}
	waiters int // callers parked on done (under flightGroup.mu)
	data    []byte
	err     error
}

// flightGroup collapses duplicate concurrent renders per key — a
// minimal singleflight, kept dependency-free.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// do runs fn once per key across concurrent callers; every caller gets
// the leader's result.
func (g *flightGroup) do(key string, fn func() ([]byte, error)) ([]byte, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[string]*flightCall{}
	}
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		<-c.done
		return c.data, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.data, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.data, c.err
}

// Service is one ImageProvider instance.
type Service struct {
	cache  *Cache
	flight flightGroup
}

// New returns an ImageProvider with a cache of cacheBytes (0 → 64 MiB).
func New(cacheBytes int64) *Service {
	if cacheBytes <= 0 {
		cacheBytes = 64 << 20
	}
	return &Service{cache: NewCache(cacheBytes, 16)}
}

// Cache exposes cache statistics.
func (s *Service) Cache() *Cache { return s.cache }

// Image returns the (possibly cached) PNG for a product at a size.
// Concurrent misses for the same (product, size) collapse into one
// render: a popular product's cache expiry no longer stampedes N
// identical CPU-heavy renders, it costs exactly one.
func (s *Service) Image(productID int64, size Size) ([]byte, error) {
	px := size.Pixels()
	if px == 0 {
		return nil, fmt.Errorf("image: unknown size %q", size)
	}
	key := strconv.FormatInt(productID, 10) + "/" + string(size)
	if data, ok := s.cache.Get(key); ok {
		return data, nil
	}
	return s.flight.do(key, func() ([]byte, error) {
		data, err := Render(productID, px)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, data)
		return data, nil
	})
}

// Mux returns the HTTP API:
//
//	GET /image/{productID}?size=preview   → image/png
//	GET /cache/stats                      → {hits, misses, bytes, entries}
func (s *Service) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /image/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "bad product id %q", r.PathValue("id"))
			return
		}
		size := Size(r.URL.Query().Get("size"))
		if size == "" {
			size = SizePreview
		}
		data, err := s.Image(id, size)
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "image/png")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		_, _ = w.Write(data)
	})
	mux.HandleFunc("GET /cache/stats", func(w http.ResponseWriter, r *http.Request) {
		hits, misses := s.cache.Stats()
		httpkit.WriteJSON(w, http.StatusOK, map[string]int64{
			"hits": hits, "misses": misses,
			"bytes": s.cache.Bytes(), "entries": int64(s.cache.Len()),
		})
	})
	return mux
}

// Client fetches images from a remote ImageProvider.
type Client struct {
	http *httpkit.Client
	base string
}

// NewClient returns a client for an ImageProvider at baseURL.
func NewClient(baseURL string, hc *httpkit.Client) *Client {
	if hc == nil {
		hc = httpkit.NewClient(0)
	}
	return &Client{http: hc, base: baseURL}
}

// Image fetches one product image.
func (c *Client) Image(ctx context.Context, productID int64, size Size) ([]byte, error) {
	return c.http.GetBytes(ctx, fmt.Sprintf("%s/image/%d?size=%s", c.base, productID, size))
}
