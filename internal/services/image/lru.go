package image

import (
	"container/list"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
)

// lruShard is one lock-striped slice of the cache. Hit/miss counters live
// here, not on Cache: a global stats mutex would re-serialize the hottest
// read path that sharding exists to parallelize.
type lruShard struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	order    *list.List // front = most recent
	items    map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

// lruEntry is one cached image. Its data lives in a mapping of its own,
// off the Go heap, and never leaves the shard lock: readers copy it out.
type lruEntry struct {
	key  string
	data []byte
}

// mapBytes allocates an entry's memory: sysMap, which tests replace to
// inject failures.
var mapBytes = sysMap

// liveMappings counts entry mappings not yet unmapped, across caches.
var liveMappings atomic.Int64

// Cache is a byte-bounded, sharded LRU for encoded images. Sharding keeps
// lock contention low under the Image service's fan-in — the same
// mechanism the original TeaStore's image cache tunes.
//
// Entries are kept off the Go heap, each in its own anonymous mapping
// (sysMap), so the collector neither scans them nor sizes its goal by
// them: a cache of 23 MiB costs 23 MiB, not the twice that a heap under
// the default GOGC grows to. The price is the copy-out rule: every read
// copies an entry's bytes out while it holds the shard lock, and an
// entry is unmapped under the same lock when it is evicted or replaced,
// so no slice of a mapping is ever seen unlocked. A Cache needs no
// Close: a finalizer on each shard unmaps what it still holds once the
// Cache is unreachable.
type Cache struct {
	shards []*lruShard
}

// NewCache returns a cache bounded to capacityBytes split over nShards
// (0 → 16 shards).
func NewCache(capacityBytes int64, nShards int) *Cache {
	if nShards <= 0 {
		nShards = 16
	}
	if capacityBytes < 1 {
		capacityBytes = 1
	}
	per := capacityBytes / int64(nShards)
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]*lruShard, nShards)}
	for i := range c.shards {
		s := &lruShard{
			capacity: per,
			order:    list.New(),
			items:    map[string]*list.Element{},
		}
		runtime.SetFinalizer(s, (*lruShard).release)
		c.shards[i] = s
	}
	return c
}

// release unmaps every entry the shard holds.
func (s *lruShard) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.order.Front(); el != nil; el = el.Next() {
		unmap(el.Value.(*lruEntry).data)
	}
	s.order.Init()
	clear(s.items)
	s.bytes = 0
}

// unmap frees one entry's mapping.
func unmap(data []byte) {
	// Munmap of a live mapping cannot fail; if it did, the pages would
	// only leak.
	_ = sysUnmap(data)
	liveMappings.Add(-1)
}

func (c *Cache) shard(key string) *lruShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[int(h.Sum32())%len(c.shards)]
}

// Get returns a copy of the cached bytes and whether they were present.
func (c *Cache) Get(key string) ([]byte, bool) {
	return c.appendGet(nil, key)
}

// appendGet appends the bytes cached under key to dst and reports
// whether they were present; a miss returns dst unchanged. Like Get, it
// counts one lookup and marks the entry most recently used.
func (c *Cache) appendGet(dst []byte, key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if ok {
		s.order.MoveToFront(el)
		dst = append(dst, el.Value.(*lruEntry).data...)
	}
	s.mu.Unlock()

	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return dst, ok
}

// peek is Get without counting a lookup or touching recency.
func (c *Cache) peek(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		return append([]byte(nil), el.Value.(*lruEntry).data...), true
	}
	return nil, false
}

// wouldEvict reports whether a Put of n bytes under key would evict
// another entry right now. A value larger than a shard evicts nothing:
// Put does not cache it.
func (c *Cache) wouldEvict(key string, n int) bool {
	s := c.shard(key)
	size := int64(n)
	if size > s.capacity {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		size -= int64(len(el.Value.(*lruEntry).data))
	}
	return s.bytes+size > s.capacity
}

// Put stores a copy of data under key, evicting least-recently-used
// entries from the key's shard until it fits. Values larger than a shard
// are not cached, and neither is data when no memory can be mapped for
// it: the key is then left uncached. The cache charges len(data), not
// the pages the copy occupies.
func (c *Cache) Put(key string, data []byte) {
	s := c.shard(key)
	size := int64(len(data))
	if size > s.capacity {
		return
	}
	// A mapping of zero bytes is invalid: an empty value takes one.
	mem, err := mapBytes(max(len(data), 1))
	if err == nil {
		liveMappings.Add(1)
		mem = mem[:copy(mem, data)]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if err != nil {
		if ok {
			s.evict(el)
		}
		return
	}
	if ok {
		// Replace in place.
		old := el.Value.(*lruEntry)
		s.bytes += size - int64(len(old.data))
		unmap(old.data)
		old.data = mem
		s.order.MoveToFront(el)
	} else {
		s.items[key] = s.order.PushFront(&lruEntry{key: key, data: mem})
		s.bytes += size
	}
	for s.bytes > s.capacity {
		s.evict(s.order.Back())
	}
}

// evict removes one entry and unmaps its memory; s.mu must be held.
func (s *lruShard) evict(el *list.Element) {
	victim := el.Value.(*lruEntry)
	s.order.Remove(el)
	delete(s.items, victim.key)
	s.bytes -= int64(len(victim.data))
	unmap(victim.data)
}

// Bytes returns total cached bytes.
func (c *Cache) Bytes() int64 {
	var total int64
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.bytes
		s.mu.Unlock()
	}
	return total
}

// Len returns total cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the configured byte bound.
func (c *Cache) Capacity() int64 {
	var total int64
	for _, s := range c.shards {
		total += s.capacity
	}
	return total
}

// Stats returns hit/miss counts aggregated across shards.
func (c *Cache) Stats() (hits, misses int64) {
	for _, s := range c.shards {
		hits += s.hits.Load()
		misses += s.misses.Load()
	}
	return hits, misses
}
