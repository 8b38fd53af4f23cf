package image

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"image/png"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/httpkit"
)

func TestRenderDeterministic(t *testing.T) {
	a, err := Render(42, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Render(42, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same product rendered differently")
	}
	c, _ := Render(43, 64)
	if bytes.Equal(a, c) {
		t.Fatal("different products rendered identically")
	}
}

func TestRenderProducesValidPNGOfRightSize(t *testing.T) {
	for _, size := range Sizes() {
		data, err := Render(7, size.Pixels())
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("size %s: invalid png: %v", size, err)
		}
		if img.Bounds().Dx() != size.Pixels() || img.Bounds().Dy() != size.Pixels() {
			t.Fatalf("size %s: got %v", size, img.Bounds())
		}
	}
}

func TestRenderValidation(t *testing.T) {
	if _, err := Render(1, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := Render(1, 4096); err == nil {
		t.Fatal("huge size accepted")
	}
	if Size("bogus").Pixels() != 0 {
		t.Fatal("unknown size has pixels")
	}
}

func TestServiceCachesRenders(t *testing.T) {
	s := New(0)
	a := s.Images([]Item{{5, SizeIcon}})[0]
	b := s.Images([]Item{{5, SizeIcon}})[0]
	if a == nil || !bytes.Equal(a, b) {
		t.Fatal("cached image differs")
	}
	hits, misses := s.Cache().Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1,1", hits, misses)
	}
	if s.Images([]Item{{5, Size("bogus")}})[0] != nil {
		t.Fatal("bogus size accepted")
	}
}

func TestLRUBasics(t *testing.T) {
	c := NewCache(100, 1)
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40))
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d", c.Bytes(), c.Len())
	}
	// Touch a so b becomes LRU; insert c → b evicted.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", make([]byte, 40))
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used a evicted")
	}
}

func TestLRUReplaceInPlace(t *testing.T) {
	c := NewCache(100, 1)
	c.Put("a", make([]byte, 10))
	c.Put("a", make([]byte, 30))
	if c.Bytes() != 30 || c.Len() != 1 {
		t.Fatalf("replace accounting wrong: bytes=%d len=%d", c.Bytes(), c.Len())
	}
}

func TestLRUOversizeValueSkipped(t *testing.T) {
	c := NewCache(64, 1)
	c.Put("big", make([]byte, 100))
	if c.Len() != 0 {
		t.Fatal("oversize value cached")
	}
}

// Property: cache never exceeds capacity and byte accounting is exact.
func TestPropertyLRUAccounting(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache(1<<12, 4)
		live := map[string]int{}
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%37)
			size := int(op % 600)
			c.Put(key, make([]byte, size))
			if size <= int(c.shards[0].capacity) {
				live[key] = size
			}
			if c.Bytes() > c.Capacity() {
				return false
			}
		}
		// Recount bytes from shard state.
		var manual int64
		for _, s := range c.shards {
			s.mu.Lock()
			for _, el := range s.items {
				manual += int64(len(el.Value.(*lruEntry).data))
			}
			s.mu.Unlock()
		}
		return manual == c.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheConcurrentSafety(t *testing.T) {
	c := NewCache(1<<16, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%64)
				if i%2 == 0 {
					c.Put(key, make([]byte, i%800))
				} else {
					c.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > c.Capacity() {
		t.Fatal("capacity exceeded under concurrency")
	}
}

// batchServer serves s over HTTP with a client for it.
func batchServer(t *testing.T, s *Service) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(s.Mux())
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL, httpkit.NewClient(5*time.Second))
}

// cacheStats reads srv's GET /cache/stats.
func cacheStats(t *testing.T, srv *httptest.Server) map[string]int64 {
	t.Helper()
	var stats map[string]int64
	if err := httpkit.NewClient(time.Second).GetJSON(context.Background(), srv.URL+"/cache/stats", &stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestHTTPAPI(t *testing.T) {
	srv, c := batchServer(t, New(1<<20))
	pngs, err := c.Images(context.Background(), []Item{{11, SizePreview}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(bytes.NewReader(pngs[0])); err != nil {
		t.Fatalf("served bytes not a png: %v", err)
	}
	if stats := cacheStats(t, srv); stats["entries"] != 1 || stats["misses"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

// TestBatchKeepsRequestOrder requires every slot to hold the render of
// the item in that position, repeats included.
func TestBatchKeepsRequestOrder(t *testing.T) {
	_, c := batchServer(t, New(1<<20))
	items := []Item{{3, SizeIcon}, {1, SizeFull}, {2, SizePreview}, {3, SizeIcon}, {1, SizeLarge}}
	pngs, err := c.Images(context.Background(), items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pngs) != len(items) {
		t.Fatalf("%d images for %d items", len(pngs), len(items))
	}
	for i, it := range items {
		want, _ := Render(it.ID, it.Size.Pixels())
		if !bytes.Equal(pngs[i], want) {
			t.Errorf("slot %d does not hold product %d at %s", i, it.ID, it.Size)
		}
	}
}

// TestBatchFailsOnlyBadSlots: an unknown size or a malformed id fails
// its own slot; its neighbours still arrive intact.
func TestBatchFailsOnlyBadSlots(t *testing.T) {
	srv, c := batchServer(t, New(1<<20))
	ctx := context.Background()
	pngs, err := c.Images(ctx, []Item{{1, SizeIcon}, {2, Size("huge")}, {3, SizeIcon}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pngs[0] == nil || pngs[1] != nil || pngs[2] == nil {
		t.Fatalf("unknown size: slots nil = %v %v %v, want false true false", pngs[0] == nil, pngs[1] == nil, pngs[2] == nil)
	}
	body, err := c.http.GetBytes(ctx, srv.URL+"/images?item=1:icon&item=x:icon&item=:icon&item=4&item=3:icon", nil)
	if err != nil {
		t.Fatal(err)
	}
	pngs, err = splitBatch(body, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Render(3, SizeIcon.Pixels())
	if pngs[0] == nil || pngs[1] != nil || pngs[2] != nil || pngs[3] != nil || !bytes.Equal(pngs[4], want) {
		t.Fatal("malformed items failed more than their own slots")
	}
}

func TestBatchEmpty(t *testing.T) {
	srv, c := batchServer(t, New(1<<20))
	ctx := context.Background()
	body, err := c.http.GetBytes(ctx, srv.URL+"/images", nil)
	if err != nil || len(body) != 0 {
		t.Fatalf("empty batch = %d bytes, %v; want 0 bytes", len(body), err)
	}
	pngs, err := c.Images(ctx, nil, nil)
	if err != nil || len(pngs) != 0 {
		t.Fatalf("client empty batch = %v, %v", pngs, err)
	}
	if stats := cacheStats(t, srv); stats["hits"]+stats["misses"] != 0 {
		t.Fatalf("empty batch looked up the cache: %v", stats)
	}
}

func TestBatchLimit(t *testing.T) {
	_, c := batchServer(t, New(1<<20))
	items := make([]Item, maxBatch+1)
	for i := range items {
		items[i] = Item{int64(i % 4), SizeIcon}
	}
	if _, err := c.Images(context.Background(), items, nil); !httpkit.IsStatus(err, 400) {
		t.Fatalf("%d items: err = %v, want 400", len(items), err)
	}
	pngs, err := c.Images(context.Background(), items[:maxBatch], nil)
	if err != nil || len(pngs) != maxBatch || pngs[maxBatch-1] == nil {
		t.Fatalf("%d items: %d images, %v", maxBatch, len(pngs), err)
	}
}

// TestClientRejectsMisalignedBatch serves bodies whose length table and
// payload disagree: the client must fail the call rather than hand back
// images cut at the wrong offsets.
func TestClientRejectsMisalignedBatch(t *testing.T) {
	table := func(lens ...uint32) []byte {
		b := make([]byte, 4*len(lens))
		for i, n := range lens {
			binary.BigEndian.PutUint32(b[4*i:], n)
		}
		return b
	}
	cases := map[string][]byte{
		"short payload":        append([]byte("abcdef"), table(3, 4)...),
		"long payload":         append([]byte("abcdefgh"), table(3, 4)...),
		"long after a failure": append([]byte("abc"), table(math.MaxUint32, 2)...),
		"truncated table":      table(3)[:3],
		"table only":           table(3),
	}
	for name, body := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write(body)
		}))
		c := NewClient(srv.URL, httpkit.NewClient(time.Second))
		if pngs, err := c.Images(context.Background(), []Item{{1, SizeIcon}, {2, SizeIcon}}, nil); err == nil {
			t.Errorf("%s: accepted as %q", name, pngs)
		}
		srv.Close()
	}
	pngs, err := splitBatch(append([]byte("abc"), table(3, math.MaxUint32, 0)...), 3)
	if err != nil || string(pngs[0]) != "abc" || pngs[1] != nil || pngs[2] == nil {
		t.Fatalf("well-formed batch = %q, %v", pngs, err)
	}
}

// TestBatchCountsEachLookupOnce: /cache/stats moves by exactly one hit
// or miss per item, repeats within a batch included.
func TestBatchCountsEachLookupOnce(t *testing.T) {
	srv, c := batchServer(t, New(1<<20))
	items := []Item{{1, SizeIcon}, {2, SizeIcon}, {1, SizeIcon}, {9, Size("huge")}}
	for round := 1; round <= 3; round++ {
		if _, err := c.Images(context.Background(), items, nil); err != nil {
			t.Fatal(err)
		}
		stats := cacheStats(t, srv)
		if got := stats["hits"] + stats["misses"]; got != int64(3*round) {
			t.Fatalf("round %d: %d lookups, want %d (%v)", round, got, 3*round, stats)
		}
		if stats["entries"] != 2 {
			t.Fatalf("round %d: %d entries, want 2", round, stats["entries"])
		}
	}
}
