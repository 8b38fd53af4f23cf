package image

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// collect runs one garbage collection and waits until the finalizer
// goroutine has run a finalizer it queued.
func collect() {
	done := make(chan struct{})
	// 64 bytes: tiny allocations may share a block and never be finalized.
	sentinel := new([64]byte)
	runtime.SetFinalizer(sentinel, func(*[64]byte) { close(done) })
	sentinel = nil
	runtime.GC()
	<-done
}

// settledMappings collects until liveMappings holds still across two
// collections, so that caches earlier tests dropped no longer move it,
// and returns it.
func settledMappings() int64 {
	n := liveMappings.Load()
	for i := 0; i < 10; i++ {
		collect()
		m := liveMappings.Load()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// fill is a value whose every byte names its key and length.
func fill(k, n int) []byte { return bytes.Repeat([]byte{byte(k*7 + n)}, n) }

// TestCopiesOutliveEviction: what Get, appendGet and a batch return are
// copies, so they keep their bytes after the entry they came from has
// been evicted and unmapped, and after its memory is reused.
func TestCopiesOutliveEviction(t *testing.T) {
	s := serviceWithCache(NewCache(32<<10, 1))
	want, err := Render(1, SizePreview.Pixels())
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put("1/preview", want)
	got, ok := s.cache.Get("1/preview")
	appended, _ := s.cache.appendGet([]byte("x"), "1/preview")
	batch, buf := s.images(nil, []Item{{1, SizePreview}})
	if !ok || !bytes.Equal(got, want) || !bytes.Equal(appended[1:], want) || !bytes.Equal(batch[0], want) {
		t.Fatal("a hit differs from the bytes put")
	}
	if &batch[0][0] != &buf[0] {
		t.Fatal("the batch's hit does not alias the buffer it returned")
	}
	for i := 0; i < 16; i++ {
		s.cache.Put(fmt.Sprintf("churn%d", i), fill(i, 8<<10))
	}
	if _, ok := s.cache.peek("1/preview"); ok {
		t.Fatal("the entry survived the churn")
	}
	if !bytes.Equal(got, want) || !bytes.Equal(appended[1:], want) || !bytes.Equal(batch[0], want) {
		t.Fatal("a copy changed after its entry was evicted")
	}
}

// TestLiveMappingsMatchLen: after puts, replacements, evictions and
// oversize values, the cache holds exactly one mapping per entry.
func TestLiveMappingsMatchLen(t *testing.T) {
	base := settledMappings()
	c := NewCache(64<<10, 4)
	for i := 0; i < 2000; i++ {
		k := (i * 7919) % 97
		c.Put(fmt.Sprintf("k%d", k), fill(k, (i*131)%(20<<10)))
		if i%5 == 0 {
			c.Put("empty", nil)
		}
	}
	if c.Len() == 0 || c.Bytes() > c.Capacity() {
		t.Fatalf("%d entries, %d of %d bytes", c.Len(), c.Bytes(), c.Capacity())
	}
	if got := liveMappings.Load() - base; got != int64(c.Len()) {
		t.Fatalf("%d live mappings for %d entries", got, c.Len())
	}
	runtime.KeepAlive(c)
}

// TestDroppedCacheUnmaps: a Cache nobody references gives its mappings
// back within a bounded number of collections, with no Close.
func TestDroppedCacheUnmaps(t *testing.T) {
	base := settledMappings()
	func() {
		s := New(1 << 20)
		s.Images([]Item{{1, SizeIcon}, {2, SizeIcon}, {3, SizePreview}})
		if n := liveMappings.Load() - base; n != 3 {
			t.Fatalf("%d live mappings after 3 puts", n)
		}
	}()
	for i := 0; i < 10 && liveMappings.Load() != base; i++ {
		collect()
	}
	if n := liveMappings.Load() - base; n != 0 {
		t.Fatalf("%d mappings still live after 10 collections", n)
	}
}

// TestMapFailureLeavesEntryUncached injects a failing mmap: renders are
// still served, correctly, but nothing is cached, and a replacement that
// cannot be mapped drops the entry it would have replaced.
func TestMapFailureLeavesEntryUncached(t *testing.T) {
	defer func(m func(int) ([]byte, error)) { mapBytes = m }(mapBytes)
	fail := func(int) ([]byte, error) { return nil, errors.New("injected mmap failure") }

	c := NewCache(1<<20, 1)
	c.Put("k", []byte("old"))
	mapBytes = fail
	c.Put("k", []byte("new"))
	if _, ok := c.Get("k"); ok || c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("a failed replacement left %d entries, %d bytes", c.Len(), c.Bytes())
	}

	s := New(1 << 20)
	items := []Item{{1, SizeIcon}, {2, SizePreview}, {1, SizeIcon}, {3, Size("huge")}}
	for round := 0; round < 2; round++ {
		got := s.Images(items)
		for i, it := range items {
			var want []byte
			if px := it.Size.Pixels(); px > 0 {
				if want, _ = Render(it.ID, px); want == nil {
					t.Fatal("reference render failed")
				}
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("round %d item %d: wrong bytes", round, i)
			}
		}
		if n := s.Cache().Len(); n != 0 {
			t.Fatalf("round %d: %d entries cached without memory", round, n)
		}
	}
}

// TestCacheConcurrentGetPutEvict races readers, writers and evictions
// over a small cache: every hit must carry exactly the bytes put under
// its key, and the accounting must stay within capacity. It is meant
// for -race.
func TestCacheConcurrentGetPutEvict(t *testing.T) {
	c := NewCache(48<<10, 2)
	s := serviceWithCache(c)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 400; i++ {
				k := (w*31 + i) % 24
				key, want := fmt.Sprintf("k%d", k), fill(k, 1000+k*100)
				switch i % 3 {
				case 0:
					c.Put(key, want)
				case 1:
					if got, ok := c.Get(key); ok && !bytes.Equal(got, want) {
						errs <- fmt.Errorf("Get(%s) returned other bytes", key)
						return
					}
				default:
					var ok bool
					if buf, ok = c.appendGet(buf[:0], key); ok && !bytes.Equal(buf, want) {
						errs <- fmt.Errorf("appendGet(%s) returned other bytes", key)
						return
					}
				}
				if i%50 == 0 {
					s.Images([]Item{{int64(w), SizeIcon}})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Bytes() > c.Capacity() {
		t.Fatalf("%d bytes over the %d capacity", c.Bytes(), c.Capacity())
	}
}

// TestHitBatchAllocCeiling pins a hit-only batch of eight previews, into
// a buffer that already has room, at one allocation per item key plus
// the result slice and the render wait group: no image byte is copied
// into a fresh allocation.
func TestHitBatchAllocCeiling(t *testing.T) {
	s := New(0)
	items := make([]Item, 8) // a category page's previews
	for i := range items {
		items[i] = Item{int64(100 + i), SizePreview}
	}
	s.Images(items)
	buf := make([]byte, 0, 256<<10)
	allocs := testing.AllocsPerRun(100, func() {
		if out, _ := s.images(buf[:0], items); out[len(items)-1] == nil {
			t.Fatal("a warm item missed")
		}
	})
	if ceiling := float64(len(items) + 2); allocs > ceiling {
		t.Fatalf("hit-only batch of %d = %.1f allocs, want at most %.0f", len(items), allocs, ceiling)
	}
}
