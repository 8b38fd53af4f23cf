// Package image implements TeaStore's ImageProvider service: it renders
// deterministic product artwork as PNG at several sizes and serves it
// through a byte-bounded LRU cache, a page's images per call like the
// original's getProductImages. Rendering is genuinely CPU-heavy, most
// of it PNG compression now that the pixel loop does no trigonometry,
// matching the service's role as one of the workload's dominant CPU
// consumers. Icons and previews are deflated with LZ77 at BestSpeed;
// full-size images go through an in-tree Huffman-only writer
// (huffman.go), since at that size LZ77 costs more than it saves.
//
// A render is cached at once while its shard has room. A render that
// would evict is cached only on its key's second miss: a fixed table of
// recent first misses (the doorkeeper) keeps images seen once, such as
// the full-size picture of a product viewed once, from pushing out the
// previews and icons that pages keep reusing.
package image

import (
	"bytes"
	"compress/zlib"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image/color"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
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

// renderState is one render's reusable scratch: the per-axis
// precompute, the radial term table with one row gathered from it, one
// filtered scanline and the raw row above it, and the two zlib writers
// with the output they compress into. Pooled whole, so a render
// allocates only the PNG it returns.
type renderState struct {
	sinX, uu, row, tri []float64
	idx                []int
	line, up           []byte
	idat               bytes.Buffer
	zw                 *zlib.Writer
	hw                 huffWriter
}

var statePool = sync.Pool{New: func() any {
	st := new(renderState)
	// BestSpeed trades a few percent of compression for encode speed:
	// synthetic artwork is re-rendered constantly under cache pressure,
	// and the paper attributes the image service's scaling ceiling to
	// exactly this CPU burn.
	st.zw, _ = zlib.NewWriterLevel(&st.idat, zlib.BestSpeed)
	return st
}}

// huffMinPx is the smallest edge length written with the Average filter
// into the Huffman-only huffWriter; smaller renders keep the Sub filter
// and BestSpeed, whose LZ77 matches pay for themselves there. Bytes over
// products 1–20, relative to image/png's adaptive filters at BestSpeed:
//
//	px                 64     125    256    383    384    400
//	Sub + BestSpeed    0.619  0.757  0.946  0.983  0.984  0.987
//	Average + Huffman  1.225  1.170  1.046  0.976  0.976  0.971
//
// Average + Huffman is the smaller from about 370 px, and at 400 px
// renders in about 0.6 of the time. Paeth + Huffman is smaller still (about
// 0.90 at 256 px, 0.87 at 400), but a straightforward Paeth costs about
// 2.5 ms more per full render than Average.
const huffMinPx = 384

// pngSignature opens every PNG file.
const pngSignature = "\x89PNG\r\n\x1a\n"

// Render generates the artwork for a product at the given edge length:
// a banded radial interference pattern whose palette and geometry derive
// from the product ID. Identical inputs produce identical bytes.
//
// The PNG is written directly, each RGB scanline already filtered, as
// one IDAT chunk. Below huffMinPx every row uses PNG filter type 1 (Sub,
// each byte minus the same channel of the pixel to its left) into one
// pooled BestSpeed zlib stream; on this smooth artwork Sub compresses
// better than image/png's per-row trial of all five filters, at none of
// its cost. From huffMinPx up every row uses filter type 3 (Average,
// each byte minus the mean of the left and upper bytes) into huffWriter,
// which codes literals only: at that size LZ77 finds too little to pay
// for its search. The trigonometry is hoisted out of the pixel loop: the
// weight's product term separates per axis, and the radial term, which
// depends only on u²+v², is evaluated once per pair of distinct u²
// values (39 903 pairs instead of 160 000 pixels at 400 px), so the
// encoder is about half of a full render. RenderReference
// (render_test.go) keeps the original implementation as the equivalence
// oracle.
func Render(productID int64, px int) ([]byte, error) {
	if px <= 0 || px > 1024 {
		return nil, fmt.Errorf("image: invalid size %d", px)
	}
	p := paramsFor(productID)

	st := statePool.Get().(*renderState)
	defer statePool.Put(st)
	if cap(st.line) < 1+3*px {
		st.sinX, st.uu, st.row = make([]float64, px), make([]float64, px), make([]float64, px)
		st.idx, st.line, st.up = make([]int, px), make([]byte, 1+3*px), make([]byte, 3*px)
	}
	sinX, uu, row, idx, line, up := st.sinX[:px], st.uu[:px], st.row[:px], st.idx[:px], st.line[:1+3*px], st.up[:3*px]
	st.idat.Reset()
	huff := px >= huffMinPx
	var zw io.WriteCloser = st.zw
	if huff {
		zw = &st.hw
		st.hw.reset(&st.idat)
		clear(up) // the row above the first is zero
		line[0] = 3
	} else {
		st.zw.Reset(&st.idat)
		line[0] = 1
	}

	// The weight's product term separates per axis: sin(fx·π·u) depends
	// only on x, cos(fy·π·v) only on y. The radial term depends on u²+v²,
	// and v at row y equals u at column y, so it is a function of a pair
	// of u² values: uu[:n] collects the distinct ones and idx maps each
	// column (and row) to its own. Column px−i mirrors i, but shares its
	// entry only when rounding left the two u² bitwise equal. u, v, and
	// every weight term use the exact expressions of RenderReference
	// (division, operator association) so the fast path rounds
	// identically and stays pixel-for-pixel equal.
	n := 0
	for i := 0; i < px; i++ {
		u := float64(i)/float64(px) - 0.5
		sinX[i] = 0.25 * math.Sin(p.fx*math.Pi*u)
		if j := px - i; j < i && uu[idx[j]] == u*u {
			idx[i] = idx[j]
		} else {
			idx[i], uu[n] = n, u*u
			n++
		}
	}
	// tri packs the upper triangle (a ≤ b) of the symmetric radial table
	// row by row; IEEE addition commutes, so uu[a]+uu[b] is the sum the
	// reference forms in either order.
	st.tri = slices.Grow(st.tri[:0], n*(n+1)/2)
	tri := st.tri
	rings2pi := p.rings * 2 * math.Pi
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			tri = append(tri, 0.25*math.Sin(rings2pi*math.Sqrt(uu[a]+uu[b])))
		}
	}
	// Each channel blends base toward accent by w: base·(1−w) + accent·w,
	// the operations and order of RenderReference's lerp, with the
	// channels converted once per render and 1−w once per pixel.
	br, bg, bb := float64(p.base.R), float64(p.base.G), float64(p.base.B)
	ar, ag, ab := float64(p.accent.R), float64(p.accent.G), float64(p.accent.B)
	for y := 0; y < px; y++ {
		v := float64(y)/float64(px) - 0.5
		cosY := math.Cos(p.fy * math.Pi * v)
		// Gather triangle row a into row[:n]: entries b < a sit in column
		// a of the earlier triangle rows, the rest are contiguous.
		a, off := idx[y], 0
		for b := 0; b < a; b++ {
			row[b] = tri[off+a-b]
			off += n - b
		}
		copy(row[a:n], tri[off:])
		var pr, pg, pb uint8 // the pixel to the left; 0 left of the edge
		for x := 0; x < px; x++ {
			w := 0.5 + sinX[x]*cosY + row[idx[x]]
			if w < 0 {
				w = 0
			}
			if w > 1 {
				w = 1
			}
			omw := 1 - w
			cr, cg, cb := uint8(br*omw+ar*w), uint8(bg*omw+ag*w), uint8(bb*omw+ab*w)
			o := 1 + 3*x
			if huff {
				u := up[o-1 : o+2 : o+2]
				line[o] = cr - uint8((uint(pr)+uint(u[0]))>>1)
				line[o+1] = cg - uint8((uint(pg)+uint(u[1]))>>1)
				line[o+2] = cb - uint8((uint(pb)+uint(u[2]))>>1)
				u[0], u[1], u[2] = cr, cg, cb
			} else {
				line[o], line[o+1], line[o+2] = cr-pr, cg-pg, cb-pb
			}
			pr, pg, pb = cr, cg, cb
		}
		// Either writer fails only when the one under it does, and a
		// bytes.Buffer never fails a write.
		_, _ = zw.Write(line)
	}
	_ = zw.Close()

	// IHDR: width, height, bit depth 8, colour type 2 (RGB), default
	// compression, filtering and no interlace.
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(px))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(px))
	ihdr[8], ihdr[9] = 8, 2
	// Three chunks, each 12 bytes of length, type and CRC around its data.
	out := make([]byte, 0, len(pngSignature)+3*12+len(ihdr)+st.idat.Len())
	out = append(out, pngSignature...)
	out = appendChunk(out, "IHDR", ihdr[:])
	out = appendChunk(out, "IDAT", st.idat.Bytes())
	return appendChunk(out, "IEND", nil), nil
}

// appendChunk appends one PNG chunk: length, type, data, and the CRC of
// type and data.
func appendChunk(b []byte, typ string, data []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	start := len(b)
	b = append(append(b, typ...), data...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
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
	// door records the keys that missed once while their shard was
	// full: only a second such miss may evict (admit).
	door doorkeeper
	// renders holds one slot per core: a render is CPU-bound, so more at
	// once across all batches would only queue on the CPU while each
	// holds its own pooled deflate state.
	renders chan struct{}
}

// New returns an ImageProvider with a cache of cacheBytes (0 → 64 MiB).
func New(cacheBytes int64) *Service {
	if cacheBytes <= 0 {
		cacheBytes = 64 << 20
	}
	return &Service{cache: NewCache(cacheBytes, 16), renders: make(chan struct{}, runtime.GOMAXPROCS(0))}
}

// Cache exposes cache statistics.
func (s *Service) Cache() *Cache { return s.cache }

// Item names one image of a batch: a product at a size.
type Item struct {
	ID   int64
	Size Size
}

// maxBatch bounds the items of one batch.
const maxBatch = 64

// Images returns the (possibly cached) PNGs of a batch aligned with
// items, nil where an item's size is unknown. Each item is one cache
// lookup. Misses render in parallel, at most one per core across all
// batches. Concurrent misses for one (product, size), in a batch or
// across batches, collapse into one render: a cache expiry costs one
// render.
func (s *Service) Images(items []Item) [][]byte {
	out := make([][]byte, len(items))
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
		s.renders <- struct{}{}
		go func(i int, id int64) {
			defer func() { <-s.renders; wg.Done() }()
			out[i], _ = s.flight.do(key, func() ([]byte, error) {
				// A flight for key that ended after this item's lookup
				// missed has already filled the cache.
				if data, ok := s.cache.peek(key); ok {
					return data, nil
				}
				data, err := Render(id, px)
				if err == nil && s.admit(key, len(data)) {
					s.cache.Put(key, data)
				}
				return data, err
			})
		}(i, it.ID)
	}
	wg.Wait()
	return out
}

// admit decides whether a fresh render of n bytes goes into the cache.
// While the key's shard has room it always does: plain LRU. A render
// that would evict is admitted only on its key's second miss, so a
// one-off image (a full-size render nobody asks for again) does not
// push out the previews and icons that pages keep reusing.
func (s *Service) admit(key string, n int) bool {
	return !s.cache.wouldEvict(key, n) || s.door.seen(key)
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
