// Package purefix exercises purecheck: memoized compute closures that
// read the clock, the global random source, or the process
// environment (directly and one summarized call away), touch mutable
// package state, or mutate caller-visible memory — plus pure closures
// that must stay clean.
package purefix

import (
	"math/rand"
	"os"
	"time"

	"burstlink/internal/cache"
	"burstlink/internal/memo"
)

type in struct{ N int }

func (i in) AppendKey(w *memo.KeyWriter) { w.Int("n", int64(i.N)) }

// counter is written by Bump, which makes it a mutable global: any
// memoized read of it splits cached from recomputed behavior.
var counter int

// Bump mutates the package state.
func Bump() { counter++ }

// Clock's compute reads the wall clock.
func Clock(c *memo.Cache) (int64, error) {
	return memo.Do(c, "clock", in{1}, func() (int64, error) {
		return time.Now().UnixNano(), nil // want "calls time.Now"
	})
}

// DoClock's compute, run by a cache Do, reads the wall clock.
func DoClock(c *cache.LRU) ([]byte, error) {
	v, _, err := c.Do("clock", func() ([]byte, error) {
		return []byte(time.Now().String()), nil // want "calls time.Now"
	})
	return v, err
}

// DoPure's compute, run by a cache Do, is a pure function of its
// captured inputs: clean.
func DoPure(c *cache.LRU, n int) ([]byte, error) {
	v, _, err := c.Do("pure", func() ([]byte, error) {
		return make([]byte, n), nil
	})
	return v, err
}

// ReadsGlobal's compute depends on mutable package state.
func ReadsGlobal(c *memo.Cache) (int, error) {
	return memo.Do(c, "g", in{2}, func() (int, error) {
		return counter, nil // want "reads package-level var counter"
	})
}

// WritesGlobal's compute has a side effect the cache elides on hits.
func WritesGlobal(c *memo.Cache) (int, error) {
	return memo.Do(c, "w", in{3}, func() (int, error) {
		counter = 7 // want "writes package-level var counter"
		return 0, nil
	})
}

// Rand's compute draws from the global random source.
func Rand(c *memo.Cache) (int, error) {
	return memo.Do(c, "r", in{4}, func() (int, error) {
		return rand.Intn(10), nil // want "math/rand.Intn"
	})
}

// env reads the process environment; its impurity summary taints every
// memoized caller one level up.
func env() string { return os.Getenv("HOME") }

// Env's compute is impure through the helper.
func Env(c *memo.Cache) (string, error) {
	return memo.Do(c, "e", in{5}, func() (string, error) {
		return env(), nil // want "calls env, which calls os.Getenv"
	})
}

// MutatesArg's compute writes through the enclosing call's parameter;
// a cache hit elides the write, so replayed results diverge.
func MutatesArg(c *memo.Cache, buf []byte) (int, error) {
	return memo.Do(c, "m", in{6}, func() (int, error) {
		buf[0] = 1 // want "mutates caller-visible memory"
		return len(buf), nil
	})
}

// ViaLocal's compute calls a once-bound local literal, which extends
// the root into that literal's body.
func ViaLocal(c *memo.Cache) (int64, error) {
	stamp := func() int64 { return time.Now().UnixNano() } // want "calls time.Now"
	return memo.Do(c, "l", in{7}, func() (int64, error) {
		return stamp(), nil
	})
}

// Pure is a referentially transparent compute: parameter reads,
// arithmetic, and type conversions (time.Duration resolves to a type,
// not a function) are all allowed.
func Pure(c *memo.Cache, base int) (int, error) {
	return memo.Do(c, "p", in{8}, func() (int, error) {
		v := base * 3
		d := time.Duration(v)
		return int(d), nil
	})
}
