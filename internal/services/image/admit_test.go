package image

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// serviceWithCache is a Service over the given cache, so a test can fix
// the shard count and size.
func serviceWithCache(c *Cache) *Service {
	return &Service{cache: c, renders: make(chan struct{}, runtime.GOMAXPROCS(0))}
}

// lookupHit looks up one item and reports whether it hit the cache.
func lookupHit(t *testing.T, s *Service, it Item) bool {
	t.Helper()
	before, _ := s.cache.Stats()
	if s.Images([]Item{it})[0] == nil {
		t.Fatalf("item %v failed", it)
	}
	after, _ := s.cache.Stats()
	return after > before
}

// TestAdmissionKeepsHotSetUnderOneOffs interleaves a hot set of eight
// icons, each asked for once per cycle, with a stream of previews that
// are each asked for once. Between two touches of a hot icon eight
// previews (about 100 KiB) arrive, more than the 64 KiB shard holds, so
// plain LRU would evict every icon before its next use. With admission
// a full shard turns the one-off previews away, and from the third cycle
// on every hot lookup hits.
func TestAdmissionKeepsHotSetUnderOneOffs(t *testing.T) {
	s := serviceWithCache(NewCache(64<<10, 1))
	const hot, cycles = 8, 6
	oneOff := int64(1000)
	for cycle := 0; cycle < cycles; cycle++ {
		hits := 0
		for i := 0; i < hot; i++ {
			if lookupHit(t, s, Item{int64(i), SizeIcon}) {
				hits++
			}
			if lookupHit(t, s, Item{oneOff, SizePreview}) {
				t.Fatalf("one-off preview %d hit", oneOff)
			}
			oneOff++
		}
		if cycle >= 2 && hits != hot {
			t.Fatalf("cycle %d: %d of %d hot lookups hit", cycle, hits, hot)
		}
	}
	if s.cache.Bytes() > s.cache.Capacity() {
		t.Fatalf("cache holds %d bytes over its %d capacity", s.cache.Bytes(), s.cache.Capacity())
	}
}

// TestAdmissionSecondMissEvictsAsLRU: in a full shard a key's first
// miss is turned away and evicts nothing; its second is admitted and
// evicts exactly as plain LRU would, least recently used first.
func TestAdmissionSecondMissEvictsAsLRU(t *testing.T) {
	size := map[int64]int64{}
	for id := int64(1); id <= 4; id++ {
		data, err := Render(id, SizeIcon.Pixels())
		if err != nil {
			t.Fatal(err)
		}
		size[id] = int64(len(data))
	}
	// Products 1, 2 and 3 fill the shard exactly; 4 is the newcomer.
	s := serviceWithCache(NewCache(size[1]+size[2]+size[3], 1))
	for id := int64(1); id <= 3; id++ {
		if lookupHit(t, s, Item{id, SizeIcon}) {
			t.Fatalf("product %d hit a fresh cache", id)
		}
	}
	if s.cache.Len() != 3 {
		t.Fatalf("%d entries after filling, want 3", s.cache.Len())
	}
	// Recency, oldest first: 2, 3, 1.
	if !lookupHit(t, s, Item{1, SizeIcon}) {
		t.Fatal("product 1 missed")
	}
	cached := func(id int64) bool {
		_, ok := s.cache.peek(fmt.Sprintf("%d/%s", id, SizeIcon))
		return ok
	}

	if lookupHit(t, s, Item{4, SizeIcon}) {
		t.Fatal("product 4 hit before it was ever cached")
	}
	if cached(4) || !cached(1) || !cached(2) || !cached(3) {
		t.Fatal("a first miss in a full shard was admitted or evicted something")
	}

	if lookupHit(t, s, Item{4, SizeIcon}) {
		t.Fatal("turned-away product 4 hit")
	}
	// Plain LRU: 2 goes first, then 3 if 4 still does not fit.
	wantThree := size[1]+size[3]+size[4] <= s.cache.Capacity()
	if !cached(4) || !cached(1) || cached(2) || cached(3) != wantThree {
		t.Fatalf("after the second miss: cached 1=%v 2=%v 3=%v 4=%v, want true false %v true",
			cached(1), cached(2), cached(3), cached(4), wantThree)
	}
	if !lookupHit(t, s, Item{4, SizeIcon}) {
		t.Fatal("admitted product 4 missed")
	}
}

// TestAdmissionOpenWhileRoom: a render that fits its shard is cached on
// its first miss, and the doorkeeper records nothing.
func TestAdmissionOpenWhileRoom(t *testing.T) {
	s := New(0)
	var items []Item
	for id := int64(0); id < 10; id++ {
		for _, size := range Sizes() {
			items = append(items, Item{id, size})
		}
	}
	s.Images(items)
	if s.cache.Len() != len(items) {
		t.Fatalf("%d of %d renders cached", s.cache.Len(), len(items))
	}
	for i := range s.door.slots {
		if s.door.slots[i].Load() != 0 {
			t.Fatalf("doorkeeper slot %d written while every shard had room", i)
		}
	}
	if hits, misses := s.cache.Stats(); hits != 0 || misses != int64(len(items)) {
		t.Fatalf("hits=%d misses=%d, want 0,%d", hits, misses, len(items))
	}
}

// TestAdmissionConcurrentAccounting runs concurrent batches over more
// icons than the cache holds, so admissions, turn-aways and evictions
// interleave: every slot still holds its product's render, the cache
// stays within capacity, and each item is exactly one hit or miss.
func TestAdmissionConcurrentAccounting(t *testing.T) {
	s := serviceWithCache(NewCache(48<<10, 4))
	const workers, batches, perBatch, keys = 4, 15, 4, 40
	want := make([][]byte, keys)
	for id := range want {
		want[id], _ = Render(int64(id), SizeIcon.Pixels())
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				items := make([]Item, perBatch)
				for i := range items {
					items[i] = Item{int64((w*7 + b*perBatch + i*3) % keys), SizeIcon}
				}
				for i, data := range s.Images(items) {
					if !bytes.Equal(data, want[items[i].ID]) {
						t.Errorf("worker %d batch %d: slot %d does not hold product %d", w, b, i, items[i].ID)
					}
				}
				if s.cache.Bytes() > s.cache.Capacity() {
					t.Errorf("cache holds %d bytes over its %d capacity", s.cache.Bytes(), s.cache.Capacity())
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, misses := s.cache.Stats(); hits+misses != workers*batches*perBatch {
		t.Fatalf("%d hits + %d misses, want %d lookups", hits, misses, workers*batches*perBatch)
	}
}

// TestCacheWouldEvict pins the query admission asks: whether a Put of n
// bytes under a key would evict another entry now.
func TestCacheWouldEvict(t *testing.T) {
	c := NewCache(100, 1)
	c.Put("a", make([]byte, 60))
	for _, tc := range []struct {
		key  string
		n    int
		want bool
	}{
		{"b", 40, false}, // fills the shard exactly
		{"b", 41, true},
		{"a", 100, false},   // replaces a in place
		{"big", 101, false}, // too large to cache at all
	} {
		if got := c.wouldEvict(tc.key, tc.n); got != tc.want {
			t.Errorf("wouldEvict(%q, %d) = %v, want %v", tc.key, tc.n, got, tc.want)
		}
	}
	if c.Len() != 1 || c.Bytes() != 60 {
		t.Fatalf("wouldEvict changed the cache: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}
