package aliasfix

import "burstlink/internal/cache"

// The hop cases: a write two and three calls below the call that is
// handed a cache hit, a borrow returned through a second helper, and
// recursion that reaches a write.

// relayScrub and relayScrub2 forward their argument to scrub.
func relayScrub(b []byte)  { scrub(b) }
func relayScrub2(b []byte) { relayScrub(b) }

// ScrubTwoHops hands a hit to a mutator two calls down.
func ScrubTwoHops(c *cache.LRU, key string) {
	v, _ := c.Get(key)
	relayScrub(v) // want "relayScrub via scrub writes through its parameter, and this argument aliases memory obtained from cache.Get"
}

// ScrubThreeHops hands a hit to a mutator three calls down.
func ScrubThreeHops(c *cache.LRU, key string) {
	v, _ := c.Get(key)
	relayScrub2(v) // want "relayScrub2 via scrub writes through its parameter"
}

// relayRow returns cachedRow's hit through a second helper.
func relayRow(c *cache.LRU, key string) []byte { return cachedRow(c, key) }

// MutateTwoHopBorrow writes a hit borrowed two calls down.
func MutateTwoHopBorrow(c *cache.LRU, key string) {
	row := relayRow(c, key)
	row[0] = 1 // want "element write mutates memory obtained from relayRow via cachedRow .returns cache-resident memory."
}

// scrubOdd and scrubEven call each other; scrubEven writes at the
// bottom. scrubOdd comes first, so its summary needs a second pass over
// the pair.
func scrubOdd(b []byte, n int) { scrubEven(b, n-1) }

func scrubEven(b []byte, n int) {
	if n == 0 {
		b[0] = 0
		return
	}
	scrubOdd(b, n-1)
}

// ScrubMutualRecursion hands a hit to the recursive pair.
func ScrubMutualRecursion(c *cache.LRU, key string) {
	v, _ := c.Get(key)
	scrubOdd(v, 3) // want "scrubOdd via scrubEven writes through its parameter"
}

// scrubAfter calls itself and scrubs at the bottom.
func scrubAfter(b []byte, n int) {
	if n > 0 {
		scrubAfter(b, n-1)
		return
	}
	relayScrub(b)
}

// ScrubSelfRecursion hands a hit to the self-recursive helper.
func ScrubSelfRecursion(c *cache.LRU, key string) {
	v, _ := c.Get(key)
	scrubAfter(v, 2) // want "scrubAfter via scrub writes through its parameter"
}

// reader is a fresh cursor over borrowed bytes.
type reader struct {
	buf []byte
	pos int
}

func newReader(b []byte) *reader { return &reader{buf: b} }

// next writes the cursor, not the bytes it reads.
func (r *reader) next() byte {
	r.pos++
	return r.buf[r.pos-1]
}

// first reads through a fresh reader: the write lands in the reader.
func first(b []byte) byte { return newReader(b).next() }

// ReadHit hands a hit to a helper that only reads it: clean.
func ReadHit(c *cache.LRU, key string) byte {
	v, _ := c.Get(key)
	return first(v)
}

// ReadHitInline builds the reader over a hit in its own body and
// advances it: the write lands in the fresh reader, so it is clean.
func ReadHitInline(c *cache.LRU, key string) byte {
	v, _ := c.Get(key)
	r := newReader(v)
	return r.next()
}

// zero writes through its pointer.
func zero(p *byte) { *p = 0 }

// ZeroHitElem hands a pointer into a hit to a writer: &v[0] allocates
// nothing, so the write lands in the cached bytes.
func ZeroHitElem(c *cache.LRU, key string) {
	v, _ := c.Get(key)
	zero(&v[0]) // want "zero writes through its parameter, and this argument aliases memory obtained from cache.Get"
}
