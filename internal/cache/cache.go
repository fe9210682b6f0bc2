// Package cache provides the bounded LRU caches behind blkd's service
// layer: the scenario-keyed result cache (NewLRU, holding response
// bodies) and the value store under internal/memo's segment cache. Every
// simulation in this repository is a pure function of its canonicalized
// inputs (the determinism suite pins that invariant), so a cached value
// is provably identical to what a fresh execution would produce — a hit
// returns byte-identical output, never a stale approximation.
package cache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// entryOf is one cached key/value pair; Elements of LRUOf.order carry
// *entryOf[V].
type entryOf[V any] struct {
	key string
	val V
}

// LRUOf is a mutex-guarded, fixed-capacity least-recently-used cache from
// canonical keys to values of type V. The zero capacity form
// (NewLRUOf[V](0)) is a disabled cache: Get always misses and Put
// discards, so callers need no separate "caching off" path.
//
// Stored values are aliased, not copied: callers must treat a value
// passed to Put or returned by Get as immutable. The server writes
// cached bodies straight to the wire, and the segment cache hands cached
// timelines to concurrent sweep cells; neither ever mutates them.
type LRUOf[V any] struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewLRUOf returns a cache holding at most capacity entries. capacity <= 0
// disables the cache entirely.
func NewLRUOf[V any](capacity int) *LRUOf[V] {
	if capacity < 0 {
		capacity = 0
	}
	return &LRUOf[V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Enabled reports whether the cache can hold entries at all.
func (c *LRUOf[V]) Enabled() bool { return c.capacity > 0 }

// Get returns the value cached under key, marking it most recently used.
func (c *LRUOf[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entryOf[V]).val, true
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full. Re-putting an existing key refreshes its value and
// recency.
func (c *LRUOf[V]) Put(key string, val V) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

// putLocked is Put's body under an already-held lock. The cache retains
// val by reference; callers own the aliasing contract (§4.11).
func (c *LRUOf[V]) putLocked(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entryOf[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entryOf[V]).key)
		c.evictions++
	}
	c.items[key] = c.order.PushFront(&entryOf[V]{key: key, val: val})
}

// EntryOf is one key/value pair of a cache snapshot (see Dump/Load).
type EntryOf[V any] struct {
	Key string
	Val V
}

// Dump returns the cache's entries ordered least → most recently used,
// so replaying them through Load (or Put) on a fresh cache reproduces
// both the contents and the eviction order exactly. Values are aliased,
// not copied — the cache's usual read-only contract applies.
func (c *LRUOf[V]) Dump() []EntryOf[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryOf[V], 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entryOf[V])
		out = append(out, EntryOf[V]{Key: e.key, Val: e.val})
	}
	return out
}

// Load replays dumped entries into the cache in order (least recently
// used first), restoring contents and recency without touching the
// hit/miss counters — a warmed cache then behaves byte-identically to
// the cache that produced the dump. Entries beyond capacity evict in
// the usual LRU order. The whole replay installs under one lock
// acquisition, and the cache takes ownership of the entry values:
// callers hand over freshly decoded (snapshot) memory, never buffers
// they keep writing to.
func (c *LRUOf[V]) Load(entries []EntryOf[V]) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		c.putLocked(e.Key, e.Val)
	}
}

// Len returns the current entry count.
func (c *LRUOf[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the counters.
func (c *LRUOf[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.order.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// NewLRU returns a response-body cache holding at most capacity
// entries. capacity <= 0 disables the cache entirely.
func NewLRU(capacity int) *LRUOf[[]byte] {
	return NewLRUOf[[]byte](capacity)
}
