package purefix

import (
	"time"

	"burstlink/internal/memo"
)

// The hop cases: an impurity two and three calls below the memoized
// compute, and recursion that reaches one.

// now reads the wall clock.
func now() int64 { return time.Now().UnixNano() }

// relayNow and relayNow2 forward to it.
func relayNow() int64  { return now() }
func relayNow2() int64 { return relayNow() }

// TwoHops's compute reads the clock two calls down.
func TwoHops(c *memo.Cache) (int64, error) {
	return memo.Do(c, "h2", in{10}, func() (int64, error) {
		return relayNow(), nil // want "calls relayNow via now, which calls time.Now"
	})
}

// ThreeHops's compute reads the clock three calls down.
func ThreeHops(c *memo.Cache) (int64, error) {
	return memo.Do(c, "h3", in{11}, func() (int64, error) {
		return relayNow2(), nil // want "calls relayNow2 via now, which calls time.Now"
	})
}

// tickOdd and tickEven call each other; tickEven bumps the global at
// the bottom. tickOdd comes first, so its summary needs a second pass
// over the pair.
func tickOdd(n int) { tickEven(n - 1) }

func tickEven(n int) {
	if n == 0 {
		Bump()
		return
	}
	tickOdd(n - 1)
}

// MutualRecursion's compute writes package state through the pair.
func MutualRecursion(c *memo.Cache) (int, error) {
	return memo.Do(c, "hm", in{12}, func() (int, error) {
		tickOdd(3) // want "calls tickOdd via Bump, which writes package-level var counter"
		return 0, nil
	})
}

// nowAfter calls itself and reads the clock at the bottom.
func nowAfter(n int) int64 {
	if n > 0 {
		return nowAfter(n - 1)
	}
	return now()
}

// SelfRecursion's compute reads the clock through the recursive helper.
func SelfRecursion(c *memo.Cache) (int64, error) {
	return memo.Do(c, "hs", in{13}, func() (int64, error) {
		return nowAfter(2), nil // want "calls nowAfter via now, which calls time.Now"
	})
}

// fib recurses without touching the environment.
func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}

// PureRecursion's compute calls a pure recursive helper: clean.
func PureRecursion(c *memo.Cache) (int, error) {
	return memo.Do(c, "hp", in{14}, func() (int, error) {
		return fib(10), nil
	})
}

// cursor is a fresh position over borrowed bytes.
type cursor struct {
	buf []byte
	pos int
}

func newCursor(b []byte) *cursor { return &cursor{buf: b} }

// next moves the cursor, not the bytes it reads.
func (c *cursor) next() byte {
	c.pos++
	return c.buf[c.pos-1]
}

// CursorOverParam's compute reads a parameter through a fresh cursor
// and advances it: the write lands in the cursor, so it is clean.
func CursorOverParam(c *memo.Cache, buf []byte) (byte, error) {
	return memo.Do(c, "hc", in{15}, func() (byte, error) {
		r := newCursor(buf)
		return r.next(), nil
	})
}

// zero writes through its pointer.
func zero(p *byte) { *p = 0 }

// ZeroParamElem's compute hands a pointer into a parameter to a
// writer: &buf[0] allocates nothing, so the write reaches the caller.
func ZeroParamElem(c *memo.Cache, buf []byte) (int, error) {
	return memo.Do(c, "hz", in{16}, func() (int, error) {
		zero(&buf[0]) // want "passes caller-visible memory .buf. to zero, which writes through it"
		return len(buf), nil
	})
}
