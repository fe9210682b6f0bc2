// Package cache is a stub of burstlink/internal/cache for the
// aliascheck and purecheck fixtures: just the LRU surface whose Get and
// Do hand back cache-resident memory, whose Put retains its value
// argument, and whose Do runs a memoized compute closure. The
// value-flow layer matches the package by import-path suffix, so this
// stub resolves exactly like the real one.
package cache

// LRU is the byte-value cache stub.
type LRU struct{ m map[string][]byte }

// NewLRU returns a stub LRU.
func NewLRU(capacity int) *LRU { return &LRU{m: map[string][]byte{}} }

// Get returns the cached value, aliased.
func (c *LRU) Get(key string) ([]byte, bool) {
	v, ok := c.m[key]
	return v, ok
}

// Put stores val, retaining the reference.
func (c *LRU) Put(key string, val []byte) { c.m[key] = val }

// Outcome says how Do produced its value.
type Outcome int

// Do returns the cached value, aliased, or computes and retains it.
func (c *LRU) Do(key string, compute func() ([]byte, error)) ([]byte, Outcome, error) {
	if v, ok := c.m[key]; ok {
		return v, 1, nil
	}
	v, err := compute()
	if err == nil {
		c.m[key] = v
	}
	return v, 0, err
}
