// Package image implements TeaStore's ImageProvider service: it renders
// deterministic product artwork as PNG at several sizes and serves it
// through a byte-bounded LRU cache, a page's images per call like the
// original's getProductImages. Rendering is genuinely CPU-heavy
// (per-pixel generation plus PNG compression), matching the service's
// role as one of the workload's dominant CPU consumers.
package image

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"net/http"
	"strconv"
	"strings"
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

// Item names one image of a batch: a product at a size.
type Item struct {
	ID   int64
	Size Size
}

// A batch holds at most maxBatch items, and at most maxRenders of its
// misses render at once: enough to keep a page's misses parallel, few
// enough that one batch cannot flood the render CPU with goroutines.
const (
	maxBatch   = 64
	maxRenders = 8
)

// Images returns the (possibly cached) PNGs of a batch aligned with
// items, nil where an item's size is unknown. Each item is one cache
// lookup. Concurrent misses for one (product, size), in a batch or across
// batches, collapse into one render: a cache expiry costs one render.
func (s *Service) Images(items []Item) [][]byte {
	out := make([][]byte, len(items))
	sem := make(chan struct{}, maxRenders)
	var wg sync.WaitGroup
	for i, it := range items {
		px := it.Size.Pixels()
		if px == 0 {
			continue
		}
		key := strconv.FormatInt(it.ID, 10) + "/" + string(it.Size)
		if data, ok := s.cache.Get(key); ok {
			out[i] = data
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, id int64) {
			defer func() { <-sem; wg.Done() }()
			out[i], _ = s.flight.do(key, func() ([]byte, error) {
				// A flight for key that ended after this item's lookup
				// missed has already filled the cache.
				if data, ok := s.cache.peek(key); ok {
					return data, nil
				}
				data, err := Render(id, px)
				if err == nil {
					s.cache.Put(key, data)
				}
				return data, err
			})
		}(i, it.ID)
	}
	wg.Wait()
	return out
}

// Mux returns the HTTP API:
//
//	GET /images?item=12:preview&item=7:icon → PNG batch, in request order
//	GET /cache/stats                         → {hits, misses, bytes, entries}
//
// A batch response is the PNGs back to back, then a table of one
// big-endian uint32 length per item (0xFFFFFFFF where that item failed).
// The table goes last so that its few bytes are still buffered when the
// handler returns: no caller holds a whole batch before the span ends.
func (s *Service) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /images", func(w http.ResponseWriter, r *http.Request) {
		parts := r.URL.Query()["item"]
		if len(parts) > maxBatch {
			httpkit.WriteError(w, http.StatusBadRequest, "%d items exceed the batch limit of %d", len(parts), maxBatch)
			return
		}
		items := make([]Item, len(parts))
		for i, part := range parts {
			// A malformed id leaves its item sizeless: it fails alone.
			id, size, _ := strings.Cut(part, ":")
			if n, err := strconv.ParseInt(id, 10, 64); err == nil {
				items[i] = Item{ID: n, Size: Size(size)}
			}
		}
		pngs := s.Images(items)
		table := make([]byte, 4*len(pngs))
		total := len(table)
		for i, data := range pngs {
			n := uint32(math.MaxUint32)
			if data != nil {
				n = uint32(len(data))
				total += len(data)
			}
			binary.BigEndian.PutUint32(table[4*i:], n)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(total))
		for _, data := range pngs {
			_, _ = w.Write(data)
		}
		_, _ = w.Write(table)
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

// Images fetches a batch of product images in one round trip, aligned
// with items, nil where an item failed. An empty batch makes no call.
func (c *Client) Images(ctx context.Context, items []Item) ([][]byte, error) {
	if len(items) == 0 {
		return nil, nil
	}
	var q strings.Builder
	for _, it := range items {
		fmt.Fprintf(&q, "&item=%d:%s", it.ID, it.Size)
	}
	body, err := c.http.GetBytes(ctx, c.base+"/images?"+q.String()[1:])
	if err != nil {
		return nil, err
	}
	return splitBatch(body, len(items))
}

// splitBatch cuts a batch body into its n images. A length table that
// does not add up exactly to the body is an error, not misaligned images.
func splitBatch(body []byte, n int) ([][]byte, error) {
	out := make([][]byte, n)
	table, off := len(body)-4*n, 0
	for i := 0; i < n && off <= table; i++ {
		if size := binary.BigEndian.Uint32(body[table+4*i:]); size != math.MaxUint32 {
			if end := off + int(size); end <= table {
				out[i] = body[off:end:end]
			}
			off += int(size)
		}
	}
	if off != table {
		return nil, fmt.Errorf("image: batch length table does not add up to its %d-byte body", len(body))
	}
	return out, nil
}
