package image

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"runtime"
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
// compares every pixel: the optimized direct-Pix path must be an exact
// behavioural clone of the original per-pixel SetRGBA renderer.
func TestRenderMatchesReference(t *testing.T) {
	for _, px := range []int{1, 7, 64, 125} {
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
// budget at the preview size (5 allocs/op measured): the pixel buffer and
// encoder state come from pools, so only the PNG bytes and encoding/png's
// own bookkeeping are allocated per call.
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
	if allocs > 6 {
		t.Fatalf("Render(…,125) allocs/op = %.1f, want ≤ 6", allocs)
	}
}

// BenchmarkImageGenerate measures the optimized render at the preview
// size the storefront grid uses; BenchmarkImageGenerateReference is the
// per-pixel reference implementation's number beside it.
func BenchmarkImageGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Render(int64(i%50), 125); err != nil {
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
