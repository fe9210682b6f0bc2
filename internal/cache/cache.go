// Package cache provides the bounded, coalescing LRU caches behind
// blkd's service layer: the scenario-keyed result cache (NewLRU,
// holding response bodies) and internal/memo's segment cache. Do is the
// one singleflight in the module: concurrent calls for a key that is
// not cached share one computation. Every simulation in this
// repository is a pure function of its canonicalized inputs (the
// determinism suite pins that invariant), so a cached value is provably
// identical to what a fresh execution would produce — a hit returns
// byte-identical output, never a stale approximation.
package cache

import (
	"container/list"
	"errors"
	"sync"
)

// Stats is a point-in-time snapshot of the cache's counters. Every Do
// counts exactly one of Hits, Misses or Coalesced; Get counts a hit or
// a miss. A miss is a computation, whether it failed or not.
type Stats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Coalesced uint64
}

// HitRatio is the share of lookups that did not compute:
// (hits+coalesced)/(hits+misses+coalesced), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Outcome says how Do produced its value.
type Outcome uint8

const (
	// Miss: this call computed the value.
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Coalesced: the call waited for a concurrent call's computation of
	// the same key and shares its result.
	Coalesced
)

// errPanicked is what a coalesced call receives when the computation
// it waited for panicked.
var errPanicked = errors.New("cache: the computation for this key panicked")

// flight is one in-flight computation.
type flight[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// LRUOf is a mutex-guarded, fixed-capacity least-recently-used cache from
// canonical keys to values of type V. The zero capacity form
// (NewLRUOf[V](0)) is a disabled cache: Get always misses, Put discards
// and Do computes on every call that finds no computation in flight,
// so callers need no separate "caching off" path.
//
// Stored values are aliased, not copied: callers must treat a value
// passed to Put or returned by Get or Do as immutable. The server writes
// cached bodies straight to the wire, and the segment cache hands cached
// timelines to concurrent sweep cells; neither ever mutates them.
type LRUOf[V any] struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; Elements carry *EntryOf[V]
	items     map[string]*list.Element
	flights   map[string]*flight[V]
	hits      uint64
	misses    uint64
	evictions uint64
	coalesced uint64
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
		flights:  make(map[string]*flight[V]),
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
	return el.Value.(*EntryOf[V]).Val, true
}

// Do returns the value for key, computing it at most once per cache
// residency: a cached value is a Hit; a call that finds the key's
// computation in flight waits for it and shares its result
// (Coalesced); otherwise this call computes (Miss). The lookup and the
// in-flight check are one step under the cache's mutex, and compute
// runs outside it. A success is cached before its key leaves the
// in-flight set, so no call can miss both and compute the key again.
// Errors are never cached.
//
// If compute panics, the key leaves the in-flight set, nothing is
// cached, the waiting calls get an error and the panic propagates.
func (c *LRUOf[V]) Do(key string, compute func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		v := el.Value.(*EntryOf[V]).Val
		c.mu.Unlock()
		return v, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		f.wg.Wait()
		return f.val, Coalesced, f.err
	}
	c.misses++
	// err stays errPanicked unless compute returns.
	f := &flight[V]{err: errPanicked}
	f.wg.Add(1)
	c.flights[key] = f
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		if f.err == nil {
			c.putLocked(key, f.val)
		}
		delete(c.flights, key)
		c.mu.Unlock()
		f.wg.Done()
	}()
	f.val, f.err = compute()
	return f.val, Miss, f.err
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full. Re-putting an existing key refreshes its value and
// recency.
func (c *LRUOf[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

// putLocked is Put's body under an already-held lock. The cache retains
// val by reference; callers own the aliasing contract (§4.11).
func (c *LRUOf[V]) putLocked(key string, val V) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*EntryOf[V]).Val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*EntryOf[V]).Key)
		c.evictions++
	}
	c.items[key] = c.order.PushFront(&EntryOf[V]{Key: key, Val: val})
}

// EntryOf is one key/value pair: the element of the cache's recency
// list and of a snapshot (see Dump/Load).
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
		out = append(out, *el.Value.(*EntryOf[V]))
	}
	return out
}

// Load replays dumped entries into the cache in order (least recently
// used first), restoring contents and recency without touching the
// counters — a warmed cache then behaves byte-identically to
// the cache that produced the dump. Entries beyond capacity evict in
// the usual LRU order. The whole replay installs under one lock
// acquisition, and the cache takes ownership of the entry values:
// callers hand over freshly decoded (snapshot) memory, never buffers
// they keep writing to.
func (c *LRUOf[V]) Load(entries []EntryOf[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		c.putLocked(e.Key, e.Val)
	}
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
		Coalesced: c.coalesced,
	}
}

// NewLRU returns a response-body cache holding at most capacity
// entries. capacity <= 0 disables the cache entirely.
func NewLRU(capacity int) *LRUOf[[]byte] {
	return NewLRUOf[[]byte](capacity)
}
