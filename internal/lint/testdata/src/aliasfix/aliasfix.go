// Package aliasfix exercises aliascheck: writes through cache-hit
// memory (directly, through a helper's borrow summary, and through a
// callee's mutation summary), cache insertions that alias caller-owned
// buffers, and the defensive-copy idioms that stay clean.
package aliasfix

import (
	"burstlink/internal/cache"
	"burstlink/internal/memo"
)

type segInput struct{ N int }

func (s segInput) AppendKey(w *memo.KeyWriter) { w.Int("n", int64(s.N)) }

// MutateHit writes an element of a cache hit: the canonical poisoning
// bug — every future Get of the key sees the stomped byte.
func MutateHit(c *cache.LRU, key string) {
	v, ok := c.Get(key)
	if ok {
		v[0] = 0 // want "element write mutates memory obtained from cache.Get"
	}
}

// AppendHit appends to a cache hit: with spare capacity the write lands
// in the cached backing array.
func AppendHit(c *cache.LRU, key string, extra byte) []byte {
	v, _ := c.Get(key)
	return append(v, extra) // want "append .* mutates memory obtained from cache.Get"
}

// CopyHit takes a defensive copy before mutating: clean.
func CopyHit(c *cache.LRU, key string) []byte {
	v, _ := c.Get(key)
	out := append([]byte(nil), v...)
	out[0] = 1
	return out
}

// StoreParam inserts a caller-owned buffer: the cache retains a view
// into memory the caller is free to reuse.
func StoreParam(c *cache.LRU, key string, buf []byte) {
	c.Put(key, buf) // want "alias caller-owned memory"
}

// StoreCopy inserts an owned copy: clean.
func StoreCopy(c *cache.LRU, key string, buf []byte) {
	c.Put(key, append([]byte(nil), buf...))
}

// MemoParam's compute closure returns the caller's buffer; the segment
// cache would retain it.
func MemoParam(c *memo.Cache, in segInput, buf []byte) ([]byte, error) {
	return memo.Do(c, "seg", in, func() ([]byte, error) {
		return buf, nil // want "returns memory aliasing buf"
	})
}

// MemoFresh's compute closure returns owned memory: clean.
func MemoFresh(c *memo.Cache, in segInput) ([]byte, error) {
	return memo.Do(c, "seg", in, func() ([]byte, error) {
		return make([]byte, 8), nil
	})
}

// MutateDo writes through the value a cache Do hands back: on a hit
// that value is the cached original.
func MutateDo(c *cache.LRU, key string) {
	v, _, _ := c.Do(key, func() ([]byte, error) { return make([]byte, 8), nil })
	v[0] = 0 // want "element write mutates memory obtained from cache.Do"
}

// DoParam's compute closure returns the caller's buffer; the cache
// would retain it.
func DoParam(c *cache.LRU, key string, buf []byte) ([]byte, error) {
	v, _, err := c.Do(key, func() ([]byte, error) {
		return buf, nil // want "returns memory aliasing buf"
	})
	return v, err
}

// DoFresh's compute closure returns owned memory, and the caller only
// reads the result: clean.
func DoFresh(c *cache.LRU, key string) (int, error) {
	v, _, err := c.Do(key, func() ([]byte, error) { return make([]byte, 8), nil })
	return len(v), err
}

// cachedRow returns the cached row, aliased — its borrow summary marks
// the result as cache-resident memory.
func cachedRow(c *cache.LRU, key string) []byte {
	v, _ := c.Get(key)
	return v
}

// MutateThroughHelper mutates a hit one call away from the Get.
func MutateThroughHelper(c *cache.LRU, key string) {
	row := cachedRow(c, key)
	row[0] = 1 // want "cachedRow"
}

// scrub zeroes its argument in place — its mutation summary marks the
// parameter as written-through.
func scrub(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// ScrubHit hands a cache hit to an in-place mutator.
func ScrubHit(c *cache.LRU, key string) {
	v, _ := c.Get(key)
	scrub(v) // want "scrub writes through its parameter"
}
