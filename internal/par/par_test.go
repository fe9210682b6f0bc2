package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		defer SetWorkers(SetWorkers(w))
		for _, n := range []int{0, 1, 7, 64, 1000} {
			hits := make([]int32, n)
			ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestForEachChunkPartitions(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	const n = 997 // prime, so chunks can't tile evenly
	hits := make([]int32, n)
	ForEachChunk(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, w := range []int{1, 4} {
		defer SetWorkers(SetWorkers(w))
		got := Map(100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: Map[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

// Do runs the given heterogeneous tasks on the worker pool and waits for
// all of them: ForEach over a task list, the shape this test pins.
func Do(fns ...func()) {
	ForEach(len(fns), func(i int) { fns[i]() })
}

func TestDoRunsAllTasks(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	var a, b, c atomic.Int32
	Do(func() { a.Store(1) }, func() { b.Store(2) }, func() { c.Store(3) })
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatalf("Do missed a task: %d %d %d", a.Load(), b.Load(), c.Load())
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, w := range []int{1, 4} {
		defer SetWorkers(SetWorkers(w))
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", w)
				}
				if s, ok := r.(string); !ok || s != "kernel failure" {
					t.Fatalf("workers=%d: unexpected panic value %v", w, r)
				}
			}()
			ForEach(64, func(i int) {
				if i == 13 {
					panic("kernel failure")
				}
			})
		}()
	}
}

func TestSerialModeRunsInline(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	// In serial mode every iteration runs on the calling goroutine, so an
	// unsynchronized variable is safe — the race detector verifies.
	sum := 0
	ForEach(1000, func(i int) { sum += i })
	if sum != 999*1000/2 {
		t.Fatalf("serial sum = %d", sum)
	}
}

func TestWorkersDefaults(t *testing.T) {
	defer SetWorkers(SetWorkers(0))
	SetWorkers(0)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	prev := SetWorkers(6)
	if prev != 0 {
		t.Fatalf("SetWorkers returned %d, want 0 (default was active)", prev)
	}
	if got := Workers(); got != 6 {
		t.Fatalf("Workers() = %d after SetWorkers(6)", got)
	}
	if prev := SetWorkers(-5); prev != 6 {
		t.Fatalf("SetWorkers returned %d, want 6", prev)
	}
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative SetWorkers should restore default, got %d", got)
	}
}
