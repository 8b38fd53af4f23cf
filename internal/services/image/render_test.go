package image

import (
	"bytes"
	"compress/zlib"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// RenderReference is the original per-pixel SetRGBA implementation,
// kept as the behavioural oracle: Render must produce pixel-identical
// images, and BenchmarkImageGenerateReference is its number beside
// BenchmarkImageGenerate's.
func RenderReference(productID int64, px int) ([]byte, error) {
	if px <= 0 || px > 1024 {
		return nil, fmt.Errorf("image: invalid size %d", px)
	}
	p := paramsFor(productID)
	img := image.NewRGBA(image.Rect(0, 0, px, px))
	for y := 0; y < px; y++ {
		for x := 0; x < px; x++ {
			u := float64(x)/float64(px) - 0.5
			v := float64(y)/float64(px) - 0.5
			r := math.Sqrt(u*u + v*v)
			w := 0.5 +
				0.25*math.Sin(p.fx*math.Pi*u)*math.Cos(p.fy*math.Pi*v) +
				0.25*math.Sin(p.rings*2*math.Pi*r)
			if w < 0 {
				w = 0
			}
			if w > 1 {
				w = 1
			}
			img.SetRGBA(x, y, color.RGBA{
				R: lerp(p.base.R, p.accent.R, w),
				G: lerp(p.base.G, p.accent.G, w),
				B: lerp(p.base.B, p.accent.B, w),
				A: 255,
			})
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		return nil, fmt.Errorf("image: encoding: %w", err)
	}
	return buf.Bytes(), nil
}

// lerp blends channel a toward b by w, the way the original renderer
// coloured each pixel.
func lerp(a, b uint8, w float64) uint8 {
	return uint8(float64(a)*(1-w) + float64(b)*w)
}

// oracleIDs cover every value paramsFor draws: fx and fy in 2…6, rings
// in 3…8. Product 977 at 400 px is where mirrored columns whose u²
// differ in the last bit first show if the radial table shares them.
var oracleIDs = []int64{0, 1, 42, 977, -3, 26, 29, 30}

// TestRenderMatchesReference decodes both implementations' PNGs and
// compares every pixel, at every size the store serves and a few odd
// ones, for products that between them draw every parameter value: the
// direct PNG writer must be an exact behavioural clone of the original
// per-pixel SetRGBA renderer.
func TestRenderMatchesReference(t *testing.T) {
	fx, fy, rings := map[float64]bool{}, map[float64]bool{}, map[float64]bool{}
	for _, id := range oracleIDs {
		p := paramsFor(id)
		fx[p.fx], fy[p.fy], rings[p.rings] = true, true, true
	}
	if len(fx) != 5 || len(fy) != 5 || len(rings) != 6 {
		t.Fatalf("oracle ids draw %d fx, %d fy, %d rings values; want 5, 5, 6", len(fx), len(fy), len(rings))
	}
	for _, px := range []int{1, 2, 3, 5, 7, 64, 125, 256, 399, 400, 401} {
		for _, id := range oracleIDs {
			matchReference(t, id, px)
		}
	}
}

// TestRenderMatchesReferenceEverySmallSize runs the oracle at every edge
// length from 1 to 130 px, so every width of the radial table, and every
// offset into its packed triangle, is checked at least once.
func TestRenderMatchesReferenceEverySmallSize(t *testing.T) {
	for px := 1; px <= 130; px++ {
		matchReference(t, 977, px)
	}
}

// matchReference fails t unless Render and RenderReference decode to
// the same pixels for one product at one size.
func matchReference(t *testing.T, id int64, px int) {
	t.Helper()
	var imgs [2]*image.RGBA
	for i, render := range []struct {
		name string
		fn   func(int64, int) ([]byte, error)
	}{{"Render", Render}, {"RenderReference", RenderReference}} {
		data, err := render.fn(id, px)
		if err != nil {
			t.Fatalf("%s(%d,%d): %v", render.name, id, px, err)
		}
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s(%d,%d): invalid PNG: %v", render.name, id, px, err)
		}
		if imgs[i], _ = img.(*image.RGBA); imgs[i] == nil {
			t.Fatalf("%s(%d,%d) decodes to %T, want *image.RGBA", render.name, id, px, img)
		}
	}
	fi, ri := imgs[0], imgs[1]
	if fi.Bounds() != ri.Bounds() {
		t.Fatalf("bounds differ: %v vs %v", fi.Bounds(), ri.Bounds())
	}
	if bytes.Equal(fi.Pix, ri.Pix) {
		return
	}
	for y := 0; y < px; y++ {
		for x := 0; x < px; x++ {
			if fi.At(x, y) != ri.At(x, y) {
				t.Fatalf("pixel (%d,%d) of product %d at %dpx differs: %v vs %v",
					x, y, id, px, fi.At(x, y), ri.At(x, y))
			}
		}
	}
}

// TestRenderGolden pins Render's exact bytes over 53 products at eight
// sizes. The image cache holds these bytes, so a change to the render
// that alters them must say so here rather than only in the pixels.
func TestRenderGolden(t *testing.T) {
	h := sha256.New()
	for id := int64(-3); id <= 49; id++ {
		for _, px := range []int{1, 3, 7, 64, 125, 256, 399, 400} {
			data, err := Render(id, px)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
	}
	const want = "82a183b2cbfa436342e0f714ce306c8d459f692425ca3c5f4ec94165e1459374"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("SHA-256 over the golden renders = %s, want %s", got, want)
	}
}

// TestRenderPNGStructure walks the file Render writes: the signature,
// then IHDR, exactly one IDAT and IEND, each with a valid CRC; the IDAT
// inflates to exactly one RGB scanline per row, each filtered with Sub
// below huffMinPx and with Average from huffMinPx up.
func TestRenderPNGStructure(t *testing.T) {
	for _, px := range []int{1, 7, 125, huffMinPx - 1, huffMinPx, 400} {
		data, err := Render(42, px)
		if err != nil {
			t.Fatal(err)
		}
		rest, ok := bytes.CutPrefix(data, []byte("\x89PNG\r\n\x1a\n"))
		if !ok {
			t.Fatalf("%d px: no PNG signature", px)
		}
		var types []string
		var ihdr, idat []byte
		for len(rest) > 0 {
			if len(rest) < 12 || uint64(len(rest)) < 12+uint64(binary.BigEndian.Uint32(rest)) {
				t.Fatalf("%d px: truncated chunk after %v", px, types)
			}
			n := binary.BigEndian.Uint32(rest)
			typ, body := string(rest[4:8]), rest[8:8+n]
			if got, want := binary.BigEndian.Uint32(rest[8+n:]), crc32.ChecksumIEEE(rest[4:8+n]); got != want {
				t.Fatalf("%d px: %s CRC %08x, want %08x", px, typ, got, want)
			}
			types = append(types, typ)
			switch typ {
			case "IHDR":
				ihdr = body
			case "IDAT":
				idat = body
			}
			rest = rest[12+n:]
		}
		if got := strings.Join(types, " "); got != "IHDR IDAT IEND" {
			t.Fatalf("%d px: chunks %s, want IHDR IDAT IEND", px, got)
		}
		want := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(px)), uint32(px))
		want = append(want, 8, 2, 0, 0, 0) // depth, RGB, compression, filter, interlace
		if !bytes.Equal(ihdr, want) {
			t.Fatalf("%d px: IHDR % x, want % x", px, ihdr, want)
		}
		zr, err := zlib.NewReader(bytes.NewReader(idat))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		stride := 1 + 3*px
		if len(raw) != px*stride {
			t.Fatalf("%d px: IDAT inflates to %d bytes, want %d", px, len(raw), px*stride)
		}
		filter := byte(1) // Sub
		if px >= huffMinPx {
			filter = 3 // Average
		}
		for y := 0; y < px; y++ {
			if f := raw[y*stride]; f != filter {
				t.Fatalf("%d px: row %d has filter %d, want %d", px, y, f, filter)
			}
		}
	}
}

// TestRenderNoLargerThanAdaptive: for the sizes pages ask for, the 256 px
// size, and either side of huffMinPx, Render's fixed filter and encoder
// must not cost bytes against image/png's per-row adaptive filter choice
// at BestSpeed. The bytes are what the image cache holds, so this guards
// its capacity in images.
func TestRenderNoLargerThanAdaptive(t *testing.T) {
	enc := png.Encoder{CompressionLevel: png.BestSpeed}
	for _, px := range []int{SizeIcon.Pixels(), SizePreview.Pixels(), SizeLarge.Pixels(), huffMinPx - 1, huffMinPx, SizeFull.Pixels()} {
		var direct, adaptive int
		for id := int64(1); id <= 20; id++ {
			data, err := Render(id, px)
			if err != nil {
				t.Fatal(err)
			}
			img, err := png.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := enc.Encode(&buf, img); err != nil {
				t.Fatal(err)
			}
			direct += len(data)
			adaptive += buf.Len()
		}
		t.Logf("%d px: %d bytes direct, %d adaptive (%.3f×)", px, direct, adaptive, float64(direct)/float64(adaptive))
		if direct > adaptive {
			t.Errorf("%d px: Render wrote %d bytes over 20 products, image/png %d", px, direct, adaptive)
		}
	}
}

// TestRenderPoolReuseKeepsDeterminism renders interleaved sizes and
// products so pooled pixel buffers are reused dirty, asserting outputs
// stay byte-identical to a fresh render.
func TestRenderPoolReuseKeepsDeterminism(t *testing.T) {
	want := map[string][]byte{}
	for _, px := range []int{64, 125, 256, 400} {
		for id := int64(1); id <= 3; id++ {
			data, err := Render(id, px)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%d/%d", id, px)] = data
		}
	}
	// Second pass reuses pooled buffers in a different order.
	for id := int64(3); id >= 1; id-- {
		for _, px := range []int{400, 256, 64, 125} {
			data, err := Render(id, px)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want[fmt.Sprintf("%d/%d", id, px)]) {
				t.Fatalf("pooled re-render of %d at %dpx differs", id, px)
			}
		}
	}
}

// TestConcurrentMissesCollapseToOneRender runs 16 concurrent batches
// that all miss on the same two keys through the HTTP API: /cache/stats
// must count one render per key, every batch must carry the same bytes,
// and every item must be exactly one lookup.
func TestConcurrentMissesCollapseToOneRender(t *testing.T) {
	s := New(0)
	srv, c := batchServer(t, s)
	items := []Item{{7, SizeFull}, {8, SizeFull}}
	var started sync.WaitGroup
	var results [16][][]byte
	var wg sync.WaitGroup
	started.Add(1)
	for i := 0; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Wait()
			results[i], _ = c.Images(context.Background(), items, nil)
		}(i)
	}
	started.Done()
	wg.Wait()
	for i := range results {
		for k := range items {
			if len(results[i]) != len(items) || len(results[i][k]) == 0 || !bytes.Equal(results[i][k], results[0][k]) {
				t.Fatalf("batch %d item %d differs from batch 0's", i, k)
			}
		}
	}
	stats := cacheStats(t, srv)
	if stats["renders"] != int64(len(items)) {
		t.Fatalf("%d renders, want one per key (%d)", stats["renders"], len(items))
	}
	// Each item is one lookup, hit or miss, and the cache holds each key
	// once.
	if hits, misses := stats["hits"], stats["misses"]; hits+misses != int64(len(results)*len(items)) {
		t.Fatalf("%d hits + %d misses, want %d lookups", hits, misses, len(results)*len(items))
	}
	if stats["entries"] != int64(len(items)) {
		t.Fatalf("cache holds %d entries, want %d", stats["entries"], len(items))
	}
}

// TestRendersBoundedByCores polls the flights in progress while
// concurrent batches of misses run: across all batches, no more renders
// run at once than there are cores.
func TestRendersBoundedByCores(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s := New(0)
			var wg sync.WaitGroup
			for b := 0; b < 4; b++ {
				items := make([]Item, 4)
				for i := range items {
					items[i] = Item{int64(10*b + i), SizeFull}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.Images(items)
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			peak := 0
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
					runtime.Gosched()
				}
				s.flight.mu.Lock()
				peak = max(peak, len(s.flight.calls))
				s.flight.mu.Unlock()
			}
			if peak == 0 || peak > procs {
				t.Fatalf("peak renders in flight %d, want 1..%d", peak, procs)
			}
		})
	}
}

// TestFlightGroupCollapses pins the singleflight itself: concurrent
// calls for one key run fn once; a later call runs it again.
func TestFlightGroupCollapses(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := g.do("k", func() ([]byte, error) {
				calls.Add(1)
				<-gate
				return []byte("v"), nil
			})
			if err != nil || string(data) != "v" {
				t.Errorf("do = %q, %v", data, err)
			}
		}()
	}
	// Release the leader only once the other seven callers are parked on
	// its flight: a caller arriving after the flight completed would
	// rightly run fn again.
	parked := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		if c := g.calls["k"]; c != nil {
			return c.waiters
		}
		return 0
	}
	for parked() < 7 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if _, err := g.do("k", func() ([]byte, error) { calls.Add(1); return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("fresh call after completion ran %d times total, want 2", n)
	}
}

// TestRenderAllocCeiling pins the pooled render's steady-state allocation
// budget across sizes (1 alloc/op measured): the scratch rows, the radial
// table and the zlib stream come from one pool and, once grown to the
// largest size, serve every smaller one, so only the PNG bytes are
// allocated per call.
func TestRenderAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	if _, err := Render(1, 400); err != nil { // warm the pools
		t.Fatal(err)
	}
	sizes := []int{400, 125, 64}
	i := 0
	allocs := testing.AllocsPerRun(30, func() {
		i++
		if _, err := Render(int64(i%50), sizes[i%len(sizes)]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Render(…, 400/125/64) allocs/op = %.1f, want ≤ 1", allocs)
	}
}

// BenchmarkImageGenerate measures the optimized render at the preview
// size the storefront grid uses, BenchmarkImageGenerateFull at the full
// size a product page shows; BenchmarkImageGenerateReference is the
// per-pixel reference implementation's number beside them.
func BenchmarkImageGenerate(b *testing.B) { benchmarkRender(b, SizePreview.Pixels()) }

func BenchmarkImageGenerateFull(b *testing.B) { benchmarkRender(b, SizeFull.Pixels()) }

func benchmarkRender(b *testing.B, px int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Render(int64(i%50), px); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImageGenerateReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RenderReference(int64(i%50), 125); err != nil {
			b.Fatal(err)
		}
	}
}
