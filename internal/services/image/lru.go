package image

import (
	"container/list"
	"hash/fnv"
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

type lruEntry struct {
	key  string
	data []byte
}

// Cache is a byte-bounded, sharded LRU for encoded images. Sharding keeps
// lock contention low under the Image service's fan-in — the same
// mechanism the original TeaStore's image cache tunes.
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
		c.shards[i] = &lruShard{
			capacity: per,
			order:    list.New(),
			items:    map[string]*list.Element{},
		}
	}
	return c
}

func (c *Cache) shard(key string) *lruShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[int(h.Sum32())%len(c.shards)]
}

// Get returns the cached bytes and whether they were present.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var data []byte
	if ok {
		s.order.MoveToFront(el)
		data = el.Value.(*lruEntry).data
	}
	s.mu.Unlock()

	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return data, ok
}

// peek is Get without counting a lookup or touching recency.
func (c *Cache) peek(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		return el.Value.(*lruEntry).data, true
	}
	return nil, false
}

// Put stores data under key, evicting least-recently-used entries from the
// key's shard until it fits. Values larger than a shard are not cached.
func (c *Cache) Put(key string, data []byte) {
	s := c.shard(key)
	size := int64(len(data))
	if size > s.capacity {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		// Replace in place.
		old := el.Value.(*lruEntry)
		s.bytes += size - int64(len(old.data))
		old.data = data
		s.order.MoveToFront(el)
	} else {
		s.items[key] = s.order.PushFront(&lruEntry{key: key, data: data})
		s.bytes += size
	}
	for s.bytes > s.capacity {
		back := s.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*lruEntry)
		s.order.Remove(back)
		delete(s.items, victim.key)
		s.bytes -= int64(len(victim.data))
	}
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
