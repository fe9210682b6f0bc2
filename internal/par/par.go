// Package par is the repository's shared parallel-execution substrate: a
// bounded worker pool over index ranges that the hot kernels (macroblock
// motion search, VR projective transformation, deblocking, the experiment
// sweep) fan out onto. BurstLink's thesis is to run the datapath as fast
// as the hardware allows so everything else can idle (§4); par is the
// software analogue for the reproduction itself.
//
// Design rules the callers rely on:
//
//   - Work is partitioned by index, never by data, so a kernel's output is
//     a pure function of the input regardless of the worker count. Callers
//     must only submit iterations whose writes are disjoint.
//   - SetWorkers(1) degrades every primitive to a plain serial loop on the
//     calling goroutine — the debugging and reproducibility mode.
//   - Panics inside workers propagate to the caller (first one wins), so a
//     failing kernel fails the test or benchmark that drove it instead of
//     crashing the process from an anonymous goroutine.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the configured pool width; 0 means "use runtime.GOMAXPROCS".
var workers atomic.Int32

// Workers returns the effective worker count used by ForEach and friends:
// the last SetWorkers value, or runtime.GOMAXPROCS(0) when unset.
func Workers() int {
	if w := workers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers pins the pool width. n <= 0 restores the default
// (runtime.GOMAXPROCS). It returns the previous configured value (0 if the
// default was active) so callers can restore it:
//
//	defer par.SetWorkers(par.SetWorkers(1))
//
// SetWorkers(1) is the serial mode: every primitive runs inline on the
// calling goroutine with no goroutines spawned.
func SetWorkers(n int) (prev int) {
	if n < 0 {
		n = 0
	}
	return int(workers.Swap(int32(n)))
}

// panicError wraps a worker panic so the re-panic in the caller keeps the
// original value visible.
type panicError struct {
	val any
}

func (p panicError) Error() string { return fmt.Sprintf("par: worker panic: %v", p.val) }

// ForEachChunk runs fn over contiguous sub-ranges [lo, hi) covering
// [0, n), distributing the chunks over the worker pool. Chunks are sized
// for load balance (several per worker); fn must tolerate any chunk
// boundaries and iterations must not write overlapping data. It blocks
// until all chunks finish. A panic in any chunk is re-raised on the
// calling goroutine after the remaining workers drain.
func ForEachChunk(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	// A few chunks per worker smooths uneven iteration costs (edge
	// macroblock rows, mostly-skip rows) without excessive dispatch.
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[panicError]
	)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pe := &panicError{val: r}
					panicked.CompareAndSwap(nil, pe)
				}
			}()
			for panicked.Load() == nil {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		panic(pe.val)
	}
}

// ForEach runs fn(i) for every i in [0, n) on the worker pool. See
// ForEachChunk for the blocking, isolation, and panic semantics.
func ForEach(n int, fn func(i int)) {
	ForEachChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Map evaluates fn(i) for every i in [0, n) on the worker pool and
// returns the results in index order, so the output is identical to the
// serial loop regardless of scheduling.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}
