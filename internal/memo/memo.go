// Package memo is the delta-simulation substrate: a bounded,
// concurrency-safe segment cache plus the canonical-key discipline that
// makes sub-run memoization sound.
//
// The repository's simulations compose from named timeline segments
// (jitter-buffer delivery, per-period phase timelines, per-period power
// integration, synthetic codec byte streams), each a pure function of a
// narrow, explicit input struct. Package memo pushes internal/api's
// per-request canonical-hash discipline down to that sub-run
// granularity: a segment input renders itself into an unambiguous
// canonical byte string through a KeyWriter (every field tagged with its
// name, every variable-length value length-prefixed, so no two distinct
// field sequences collide), the SHA-256 of that string keys the segment
// cache, and a sweep that changes one knob recomputes only the segments
// the knob invalidates.
//
// The cache layers internal/cache's LRU under the singleflight-style
// coalescing internal/server uses for whole requests: concurrent misses
// on one key run the segment once and share the value. Cached values are
// aliased, never copied — segment outputs are immutable by contract
// (the determinism suite pins that a cached segment is bit-identical to
// a recomputed one). That contract is enforced on two levels: the
// blklint aliascheck analyzer statically rejects writes through
// hit-derived memory, and value types that implement Clone() T opt into
// Do's deep-copy-on-get guard, which hands every caller an owned copy so
// even a mutation the analyzer cannot prove away never reaches the
// cached original.
//
// The companion blklint analyzer memokeycheck enforces the key
// discipline statically: every field of a segment input struct must be
// written into its AppendKey, because a field that influences the
// segment's output but not its key is a silent stale-cache bug.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"burstlink/internal/cache"
)

// Keyer renders a segment input into its canonical key bytes. The
// contract: two semantically equal inputs append identical bytes, and
// any field mutation changes the bytes (memokeycheck verifies all
// fields are written; the FuzzSegmentKey target exercises the mutation
// half).
type Keyer interface {
	AppendKey(w *KeyWriter)
}

// KeyWriter accumulates the canonical byte form of a segment input.
// Every append is tagged with a field name and a type marker, and every
// variable-length payload is length-prefixed, so distinct append
// sequences produce distinct byte strings — the property the key's
// collision resistance stands on.
type KeyWriter struct {
	buf []byte
}

// Type markers, one per append kind, so e.g. Int(x, 1) and Uint(x, 1)
// cannot alias.
const (
	kindInt    = 'i'
	kindUint   = 'u'
	kindFloat  = 'f'
	kindBool   = 'b'
	kindString = 's'
	kindBytes  = 'y'
	kindSub    = 'n'
	kindEnd    = 'e'
)

// tag writes the field header: length-prefixed name plus a type marker.
func (w *KeyWriter) tag(name string, kind byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(name)))
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, kind)
}

// Int appends a signed integer field.
func (w *KeyWriter) Int(name string, v int64) {
	w.tag(name, kindInt)
	w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v))
}

// Uint appends an unsigned integer field.
func (w *KeyWriter) Uint(name string, v uint64) {
	w.tag(name, kindUint)
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Float appends a float field at full bit precision: keys distinguish
// every distinct bit pattern, exactly as the bit-reproducible simulators
// do.
func (w *KeyWriter) Float(name string, v float64) {
	w.tag(name, kindFloat)
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Bool appends a boolean field.
func (w *KeyWriter) Bool(name string, v bool) {
	w.tag(name, kindBool)
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends a string field, length-prefixed.
func (w *KeyWriter) String(name string, v string) {
	w.tag(name, kindString)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(v)))
	w.buf = append(w.buf, v...)
}

// Bytes appends a raw byte field, length-prefixed.
func (w *KeyWriter) Bytes(name string, v []byte) {
	w.tag(name, kindBytes)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(v)))
	w.buf = append(w.buf, v...)
}

// Duration appends a time.Duration field.
func (w *KeyWriter) Duration(name string, d time.Duration) {
	w.Int(name, int64(d))
}

// Sub appends a nested Keyer under the field name, bracketed so a
// nested sequence cannot run into the surrounding fields.
func (w *KeyWriter) Sub(name string, k Keyer) {
	w.tag(name, kindSub)
	k.AppendKey(w)
	w.tag(name, kindEnd)
}

// Sum returns the canonical cache key: the segment name (kept readable
// for stats and debugging) plus the SHA-256 of the accumulated bytes.
func (w *KeyWriter) Sum(segment string) string {
	sum := sha256.Sum256(w.buf)
	return segment + ":" + hex.EncodeToString(sum[:])
}

// KeyOf renders k's canonical key under the given segment name.
func KeyOf(segment string, k Keyer) string {
	var w KeyWriter
	k.AppendKey(&w)
	return w.Sum(segment)
}

// Stats snapshots the segment cache counters: the LRU's hit/miss/
// eviction counts plus how many computations were coalesced onto an
// identical in-flight one.
type Stats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Coalesced uint64
}

// call is one in-flight segment computation.
type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

// Cache is the bounded, concurrency-safe segment cache: an LRU of
// segment outputs keyed by canonical input hashes, with singleflight
// coalescing so concurrent sweep cells that need the same segment run it
// once. With a nil *Cache every Do computes directly.
//
// Cached values are aliased, never copied. Segment outputs are immutable
// by contract; Do's compute functions must return values that are never
// mutated afterwards.
type Cache struct {
	lru       *cache.LRUOf[any]
	mu        sync.Mutex
	calls     map[string]*call
	coalesced atomic.Uint64
}

// NewCache returns a segment cache holding at most capacity entries.
// capacity <= 0 returns a disabled cache (every Do computes directly),
// so callers need no separate "memo off" path.
func NewCache(capacity int) *Cache {
	return &Cache{
		lru:   cache.NewLRUOf[any](capacity),
		calls: make(map[string]*call),
	}
}

// Enabled reports whether the cache can hold entries at all. A nil
// cache is disabled.
func (c *Cache) Enabled() bool { return c != nil && c.lru.Enabled() }

// Stats snapshots the counters. A nil or disabled cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	ls := c.lru.Stats()
	return Stats{
		Entries:   ls.Entries,
		Capacity:  ls.Capacity,
		Hits:      ls.Hits,
		Misses:    ls.Misses,
		Evictions: ls.Evictions,
		Coalesced: c.coalesced.Load(),
	}
}

// Dump returns the segment cache's entries, least → most recently used,
// for snapshot export (internal/cluster). Values are aliased with the
// cache; the segment read-only contract applies. A nil or disabled
// cache dumps nothing.
func (c *Cache) Dump() []cache.EntryOf[any] {
	if !c.Enabled() {
		return nil
	}
	return c.lru.Dump()
}

// Load replays dumped segment entries into the cache (least recently
// used first), restoring contents and recency. Counters are untouched:
// a warmed cache's subsequent hit/miss behavior is identical to the
// cache that produced the dump. A nil or disabled cache ignores the
// load.
func (c *Cache) Load(entries []cache.EntryOf[any]) {
	if !c.Enabled() {
		return
	}
	c.lru.Load(entries)
}

// do returns compute's value for key: cache first, then attach to or
// lead the in-flight computation of the same key, then compute. Errors
// are never cached — a failing segment recomputes on the next request.
func (c *Cache) do(key string, compute func() (any, error)) (any, error) {
	// The lookup and the in-flight check are one step under mu: a leader
	// caches its value before it leaves calls, so no caller can miss
	// both and compute the key a second time.
	c.mu.Lock()
	if v, ok := c.lru.Get(key); ok {
		c.mu.Unlock()
		return v, nil
	}
	if cl, ok := c.calls[key]; ok {
		c.mu.Unlock()
		cl.wg.Wait()
		c.coalesced.Add(1)
		return cl.val, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	c.calls[key] = cl
	c.mu.Unlock()

	cl.val, cl.err = compute()
	if cl.err == nil {
		c.lru.Put(key, cl.val)
	}
	c.mu.Lock()
	delete(c.calls, key)
	c.mu.Unlock()
	cl.wg.Done()
	return cl.val, cl.err
}

// Do returns the segment output for input in, computing it at most once
// per cache residency: a hit returns the cached value, concurrent
// misses coalesce onto one execution, and a nil or disabled cache
// computes directly. The cached value is aliased:
// compute must return a value that is never mutated afterwards.
//
// Types that implement Clone() T opt into the deep-copy-on-get guard:
// Do returns a clone of the cached value instead of the value itself,
// so no caller ever holds a live alias into the cache. This is the
// runtime twin of the static aliascheck analyzer — aliascheck proves
// callers don't mutate hit-derived memory, the guard makes the cache
// immune even to mutations the analyzer cannot see (unknown-origin
// escapes, reflection, future callers outside the module). The clone
// runs on every enabled-cache return, including the miss that inserted
// the value, because the inserting caller aliases the cache too.
func Do[T any](c *Cache, segment string, in Keyer, compute func() (T, error)) (T, error) {
	if !c.Enabled() {
		return compute()
	}
	v, err := c.do(KeyOf(segment, in), func() (any, error) { return compute() })
	if err != nil {
		var zero T
		return zero, err
	}
	out := v.(T)
	if cl, ok := any(out).(interface{ Clone() T }); ok {
		return cl.Clone(), nil
	}
	return out, nil
}
