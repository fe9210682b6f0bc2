// Package memo is the delta-simulation substrate: a bounded,
// concurrency-safe segment cache plus the module's one canonical-key
// discipline, which keys both that cache and blkd's result cache.
//
// The repository's simulations compose from named timeline segments
// (jitter-buffer delivery, per-period phase timelines, per-period power
// integration, synthetic codec byte streams), each a pure function of a
// narrow, explicit input struct. A segment input — or, one level up, an
// internal/api request — renders itself into an unambiguous canonical
// byte string through a KeyWriter (every field tagged with its name,
// every variable-length value length-prefixed, so no two distinct field
// sequences collide), and the SHA-256 of that string is the cache key.
// A sweep that changes one knob recomputes only the segments the knob
// invalidates.
//
// The cache is internal/cache's coalescing LRU, the same one
// internal/server uses for whole requests: concurrent misses on one key
// run the segment once and share the value. Cached values are
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
// discipline statically: every field of a keyed struct (segment input or
// request) must be written into its AppendKey, because a field that
// influences the output but not its key is a silent stale-cache bug.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"

	"burstlink/internal/cache"
)

// Keyer renders a segment input or a request into its canonical key
// bytes. The contract: two semantically equal inputs append identical
// bytes, and any field mutation changes the bytes (memokeycheck verifies
// all fields are written; FuzzSegmentKey, FuzzScenarioKey and the
// request key tests exercise the mutation half).
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

// Sum returns the canonical cache key: the segment name or endpoint
// (kept readable for stats and debugging) plus the SHA-256 of the
// accumulated bytes.
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

// Cache is the bounded, concurrency-safe segment cache: internal/cache's
// coalescing LRU of segment outputs keyed by canonical input hashes, so
// concurrent sweep cells that need the same segment run it once. With
// a nil *Cache every Do computes directly.
//
// Cached values are aliased, never copied. Segment outputs are immutable
// by contract; Do's compute functions must return values that are never
// mutated afterwards.
type Cache = cache.LRUOf[any]

// NewCache returns a segment cache holding at most capacity entries.
// capacity <= 0 returns a disabled cache (every Do computes directly),
// so callers need no separate "memo off" path.
func NewCache(capacity int) *Cache { return cache.NewLRUOf[any](capacity) }

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
	if c == nil || !c.Enabled() {
		return compute()
	}
	v, _, err := c.Do(KeyOf(segment, in), func() (any, error) { return compute() })
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
