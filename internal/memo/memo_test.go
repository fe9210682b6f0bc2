package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pair is a minimal two-field segment input for cache tests.
type pair struct{ A, B int64 }

func (p pair) AppendKey(w *KeyWriter) {
	w.Int("a", p.A)
	w.Int("b", p.B)
}

func TestDoCachesAndCounts(t *testing.T) {
	c := NewCache(8)
	calls := 0
	get := func(p pair) int64 {
		v, err := Do(c, "sum", p, func() (int64, error) { calls++; return p.A + p.B, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get(pair{2, 3}) != 5 || get(pair{2, 3}) != 5 || get(pair{3, 2}) != 5 {
		t.Fatal("wrong values")
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (field order matters: {2,3} != {3,2})", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoNeverCachesErrors(t *testing.T) {
	c := NewCache(8)
	calls := 0
	boom := errors.New("boom")
	f := func() (int, error) { calls++; return 0, boom }
	if _, err := Do(c, "seg", pair{1, 1}, f); !errors.Is(err, boom) {
		t.Fatal("want error")
	}
	if _, err := Do(c, "seg", pair{1, 1}, f); !errors.Is(err, boom) {
		t.Fatal("want error again")
	}
	if calls != 2 {
		t.Fatalf("failed segment was cached (calls=%d)", calls)
	}
	// Each failed computation still counts as a miss.
	if st := c.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Fatalf("error entered cache or went uncounted: %+v", st)
	}
}

func TestNilAndDisabledCacheComputeDirectly(t *testing.T) {
	disabled := NewCache(0)
	if disabled.Enabled() {
		t.Fatal("NewCache(0) should be disabled")
	}
	for _, c := range []*Cache{nil, disabled} {
		calls := 0
		for i := 0; i < 3; i++ {
			v, err := Do(c, "seg", pair{4, 4}, func() (int, error) { calls++; return 9, nil })
			if err != nil || v != 9 {
				t.Fatal("compute failed")
			}
		}
		if calls != 3 {
			t.Fatalf("disabled cache memoized (calls=%d)", calls)
		}
	}
	if st := disabled.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache counted: %+v", st)
	}
}

func TestEvictionBound(t *testing.T) {
	c := NewCache(4)
	for i := int64(0); i < 10; i++ {
		if _, err := Do(c, "seg", pair{i, 0}, func() (int64, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 4 {
		t.Fatalf("bound violated: %+v", st)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
}

// TestCoalescing: concurrent misses on one key run the segment once and
// all observers share the value. The leader counts the one miss; every
// follower counts as coalesced and never as a miss.
func TestCoalescing(t *testing.T) {
	c := NewCache(8)
	var calls atomic.Int64
	release := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	vals := make([]int64, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := Do(c, "slow", pair{7, 7}, func() (int64, error) {
				calls.Add(1)
				<-release
				return 14, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	// Let the leader win the key and every follower attach to its
	// computation (a follower is counted as coalesced before it waits),
	// then release.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < workers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never attached: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d with followers attached, want 1 (%+v)", st.Misses, st)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("segment computed %d times under concurrency", got)
	}
	for i, v := range vals {
		if v != 14 {
			t.Fatalf("worker %d saw %d", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != workers-1 {
		t.Fatalf("misses %d, hits %d + coalesced %d != %d", st.Misses, st.Hits, st.Coalesced, workers-1)
	}
}

// TestDoPanicDoesNotBlockKey: a segment computation that panics must
// not leave its key in flight — the next Do on the key computes
// instead of waiting forever on the dead leader.
func TestDoPanicDoesNotBlockKey(t *testing.T) {
	c := NewCache(8)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compute panic did not propagate")
			}
		}()
		_, _ = Do(c, "seg", pair{1, 1}, func() (int, error) { panic("boom") })
	}()
	done := make(chan int, 1)
	go func() {
		v, err := Do(c, "seg", pair{1, 1}, func() (int, error) { return 2, nil })
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	select {
	case v := <-done:
		if v != 2 {
			t.Fatalf("Do after panic = %d, want 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do on a key whose computation panicked is still blocked")
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 misses (the panic and the recompute) and 1 entry", st)
	}
}

// TestKeyWriterUnambiguous pins the anti-collision framing: append
// sequences whose flat concatenations coincide must produce different
// keys.
func TestKeyWriterUnambiguous(t *testing.T) {
	key := func(f func(w *KeyWriter)) string {
		var w KeyWriter
		f(&w)
		return w.Sum("s")
	}
	cases := [][2]func(w *KeyWriter){
		// Name/value boundary shifts.
		{func(w *KeyWriter) { w.String("ab", "c") }, func(w *KeyWriter) { w.String("a", "bc") }},
		// One field vs two fields whose bytes concatenate equally.
		{func(w *KeyWriter) { w.String("x", "aabb") },
			func(w *KeyWriter) { w.String("x", "aa"); w.String("x", "bb") }},
		// Same bits, different type marker.
		{func(w *KeyWriter) { w.Int("v", 1) }, func(w *KeyWriter) { w.Uint("v", 1) }},
		// Nesting boundary: {a}{b} vs {a,b}.
		{func(w *KeyWriter) { w.Sub("p", pair{1, 2}) },
			func(w *KeyWriter) { w.Int("a", 1); w.Int("b", 2) }},
		// Empty string vs absent field.
		{func(w *KeyWriter) { w.String("s", "") }, func(w *KeyWriter) {}},
	}
	for i, tc := range cases {
		if key(tc[0]) == key(tc[1]) {
			t.Fatalf("case %d: distinct sequences collided", i)
		}
	}
	// Segment names partition the keyspace even for identical bytes.
	if KeyOf("seg1", pair{1, 2}) == KeyOf("seg2", pair{1, 2}) {
		t.Fatal("segment name not part of key")
	}
}

func TestStatsString(t *testing.T) {
	c := NewCache(2)
	_, _ = Do(c, "s", pair{1, 1}, func() (int, error) { return 1, nil })
	st := c.Stats()
	if st.Capacity != 2 || st.Misses != 1 {
		t.Fatalf("%+v", st)
	}
	// Smoke the %+v path used in failure messages.
	if s := fmt.Sprintf("%+v", st); s == "" {
		t.Fatal("empty stats")
	}
}

// row is a cloneable segment output: implementing Clone() row opts it
// into Do's deep-copy-on-get guard.
type row []float64

func (r row) Clone() row { return append(row(nil), r...) }

// TestHitMutationDoesNotPoisonCache is the runtime twin of the
// aliascheck headline finding: a caller that mutates a slice obtained
// from a cache hit must not corrupt what the next hit of the same key
// observes. For cloneable values the deep-copy-on-get guard makes this
// hold unconditionally — on the inserting miss as well as on every hit.
func TestHitMutationDoesNotPoisonCache(t *testing.T) {
	c := NewCache(8)
	calls := 0
	get := func() row {
		v, err := Do(c, "row", pair{1, 2}, func() (row, error) {
			calls++
			return row{1, 2, 3}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	first := get() // miss: the returned value aliases nothing the cache holds
	first[0] = -99

	second := get() // hit: must be pristine despite the mutation above
	if second[0] != 1 || second[1] != 2 || second[2] != 3 {
		t.Fatalf("cache poisoned by miss-path mutation: second Get = %v", second)
	}
	second[2] = -7

	third := get() // hit again: unaffected by the hit-path mutation too
	if third[0] != 1 || third[1] != 2 || third[2] != 3 {
		t.Fatalf("cache poisoned by hit-path mutation: third Get = %v", third)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1 (clones must come from the cache, not recomputation)", calls)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss", st)
	}
}
