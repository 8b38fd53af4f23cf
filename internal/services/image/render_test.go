package image

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
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

// TestRenderMatchesReference decodes both implementations' PNGs and
// compares every pixel, at every size the store serves and a few odd
// ones: the direct PNG writer must be an exact behavioural clone of the
// original per-pixel SetRGBA renderer.
func TestRenderMatchesReference(t *testing.T) {
	for _, px := range []int{1, 2, 7, 64, 125, 256, 400} {
		for _, id := range []int64{0, 1, 42, 977, -3} {
			fast, err := Render(id, px)
			if err != nil {
				t.Fatalf("Render(%d,%d): %v", id, px, err)
			}
			ref, err := RenderReference(id, px)
			if err != nil {
				t.Fatalf("RenderReference(%d,%d): %v", id, px, err)
			}
			fi, err := png.Decode(bytes.NewReader(fast))
			if err != nil {
				t.Fatalf("fast PNG invalid: %v", err)
			}
			ri, err := png.Decode(bytes.NewReader(ref))
			if err != nil {
				t.Fatalf("reference PNG invalid: %v", err)
			}
			if fi.Bounds() != ri.Bounds() {
				t.Fatalf("bounds differ: %v vs %v", fi.Bounds(), ri.Bounds())
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
	}
}

// TestRenderPNGStructure walks the file Render writes: the signature,
// then IHDR, exactly one IDAT and IEND, each with a valid CRC; the IDAT
// inflates to exactly one Sub-filtered RGB scanline per row.
func TestRenderPNGStructure(t *testing.T) {
	for _, px := range []int{1, 7, 125, 400} {
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
		for y := 0; y < px; y++ {
			if f := raw[y*stride]; f != 1 {
				t.Fatalf("%d px: row %d has filter %d, want 1 (Sub)", px, y, f)
			}
		}
	}
}

// TestRenderNoLargerThanAdaptive: for the sizes pages ask for, Render's
// fixed Sub filter must not cost bytes against image/png's per-row
// adaptive filter choice at the same compression level. The bytes are
// what the image cache holds, so this guards its capacity in images.
func TestRenderNoLargerThanAdaptive(t *testing.T) {
	enc := png.Encoder{CompressionLevel: png.BestSpeed}
	for _, size := range []Size{SizeIcon, SizePreview, SizeFull} {
		var direct, adaptive int
		for id := int64(1); id <= 20; id++ {
			data, err := Render(id, size.Pixels())
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
		t.Logf("%s: %d bytes direct, %d adaptive (%.2f×)", size, direct, adaptive, float64(direct)/float64(adaptive))
		if direct > adaptive {
			t.Errorf("%s: Render wrote %d bytes over 20 products, image/png %d", size, direct, adaptive)
		}
	}
}

// TestRenderPoolReuseKeepsDeterminism renders interleaved sizes and
// products so pooled pixel buffers are reused dirty, asserting outputs
// stay byte-identical to a fresh render.
func TestRenderPoolReuseKeepsDeterminism(t *testing.T) {
	want := map[string][]byte{}
	for _, px := range []int{64, 125, 256} {
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
		for _, px := range []int{256, 64, 125} {
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
// that all miss on the same two keys. Every caller of a collapsed
// render receives the leader's slice, and every independent render
// allocates its own, so one backing array per key across all 16 results
// proves each key rendered once.
func TestConcurrentMissesCollapseToOneRender(t *testing.T) {
	s := New(0)
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
			results[i] = s.Images(items)
		}(i)
	}
	started.Done()
	wg.Wait()
	for i := range results {
		for k := range items {
			if len(results[i][k]) == 0 || &results[i][k][0] != &results[0][k][0] {
				t.Fatalf("batch %d item %d holds a second render", i, k)
			}
		}
	}
	// Each item is one lookup, hit or miss, and the cache holds each key
	// once.
	if hits, misses := s.Cache().Stats(); hits+misses != int64(len(results)*len(items)) {
		t.Fatalf("%d hits + %d misses, want %d lookups", hits, misses, len(results)*len(items))
	}
	if s.Cache().Len() != len(items) {
		t.Fatalf("cache holds %d entries, want %d", s.Cache().Len(), len(items))
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
// budget at the preview size (1 alloc/op measured): the scratch rows and
// the zlib stream come from one pool, so only the PNG bytes are
// allocated per call.
func TestRenderAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	if _, err := Render(1, 125); err != nil { // warm the pools
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if _, err := Render(int64(i%50), 125); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Render(…,125) allocs/op = %.1f, want ≤ 1", allocs)
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
