package cache

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"burstlink/internal/par"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU(2)
	if !c.Enabled() {
		t.Fatal("NewLRU(2) should be enabled")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("a should survive eviction, got %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", st.Hits, st.Misses)
	}
}

func TestLRUUpdateRefreshesRecency(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("a", []byte("1'")) // refresh: "b" becomes LRU
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted after a's refresh")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1'" {
		t.Fatalf("Get(a) = %q, %v; want refreshed value", v, ok)
	}
}

func TestDisabledCache(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		c := NewLRU(capacity)
		if c.Enabled() {
			t.Fatalf("NewLRU(%d) should be disabled", capacity)
		}
		c.Put("a", []byte("1"))
		if _, ok := c.Get("a"); ok {
			t.Fatal("disabled cache should never hit")
		}
		for i := 0; i < 2; i++ {
			v, out, err := c.Do("a", func() ([]byte, error) { return []byte("2"), nil })
			if err != nil || string(v) != "2" || out != Miss {
				t.Fatalf("disabled Do = %q, %v, %v; want a fresh computation", v, out, err)
			}
		}
		if n := c.Stats().Entries; n != 0 {
			t.Fatalf("disabled cache holds %d entries", n)
		}
	}
}

// TestLRUConcurrentAccess mixes Put, Get and Do on 128 keys over a
// 64-entry cache, so Do's in-flight set runs under constant eviction.
func TestLRUConcurrentAccess(t *testing.T) {
	const n = 1024
	c := NewLRU(64)
	defer par.SetWorkers(par.SetWorkers(8))
	par.ForEach(n, func(i int) {
		key := fmt.Sprintf("k%d", i%128)
		c.Put(key, []byte(key))
		if v, ok := c.Get(key); ok && string(v) != key {
			t.Errorf("Get(%s) returned %q", key, v)
		}
		v, _, err := c.Do(key, func() ([]byte, error) { return []byte(key), nil })
		if err != nil || string(v) != key {
			t.Errorf("Do(%s) returned %q, %v", key, v, err)
		}
	})
	st := c.Stats()
	if st.Entries > 64 {
		t.Fatalf("Entries = %d exceeds capacity", st.Entries)
	}
	// Each iteration's Get and Do count exactly once each.
	if got := st.Hits + st.Misses + st.Coalesced; got != 2*n {
		t.Fatalf("hits %d + misses %d + coalesced %d = %d, want %d", st.Hits, st.Misses, st.Coalesced, got, 2*n)
	}
}

// waitCoalesced polls until n calls are waiting on an in-flight
// computation. Coalesced counts a call under the cache's mutex before
// it waits, so the counter, not a guessed sleep, shows the followers
// are attached.
func waitCoalesced[V any](t *testing.T, c *LRUOf[V], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d calls coalesced", c.Stats().Coalesced, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoCoalesces pins the coalescing mechanism itself: while a
// leader's computation is in flight, followers on the same key attach
// to it, share its exact result, and the compute function runs once.
func TestDoCoalesces(t *testing.T) {
	c := NewLRU(8)
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64

	type result struct {
		body    []byte
		outcome Outcome
	}
	leaderDone := make(chan result, 1)
	go func() {
		body, out, _ := c.Do("k", func() ([]byte, error) {
			calls.Add(1)
			close(started)
			<-release
			return []byte("leader-body"), nil
		})
		leaderDone <- result{body, out}
	}()
	<-started

	const followers = 4
	followerDone := make(chan result, followers)
	for i := 0; i < followers; i++ {
		go func() {
			body, out, _ := c.Do("k", func() ([]byte, error) {
				calls.Add(1)
				t.Error("follower compute ran; call was not coalesced")
				return []byte("follower-body"), nil
			})
			followerDone <- result{body, out}
		}()
	}
	waitCoalesced(t, c, followers)
	close(release)

	ld := <-leaderDone
	if ld.outcome != Miss || string(ld.body) != "leader-body" {
		t.Fatalf("leader result = %+v", ld)
	}
	for i := 0; i < followers; i++ {
		fo := <-followerDone
		if fo.outcome != Coalesced || string(fo.body) != "leader-body" {
			t.Fatalf("follower result = %+v", fo)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}

	// The leader's body is cached: a later call hits without computing.
	body, out, err := c.Do("k", func() ([]byte, error) { return []byte("fresh"), nil })
	if out != Hit || string(body) != "leader-body" || err != nil {
		t.Fatalf("post-flight Do = %q, %v, %v", body, out, err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Coalesced != followers {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, %d coalesced", st, followers)
	}
}

// TestDoPanicReleasesKey: a panicking computation must not leave its
// key in flight. The panic propagates to the leader, the attached
// follower gets an error (never a zero value), nothing is cached, and
// a later call on the key computes instead of blocking.
func TestDoPanicReleasesKey(t *testing.T) {
	c := NewLRU(8)
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _, _ = c.Do("k", func() ([]byte, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() ([]byte, error) { return []byte("follower"), nil })
		followerErr <- err
	}()
	waitCoalesced(t, c, 1)
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("leader recovered %v, want the compute panic", p)
	}
	if err := <-followerErr; !errors.Is(err, errPanicked) {
		t.Fatalf("follower err = %v, want errPanicked", err)
	}

	done := make(chan []byte, 1)
	go func() {
		v, _, _ := c.Do("k", func() ([]byte, error) { return []byte("fresh"), nil })
		done <- v
	}()
	select {
	case v := <-done:
		if string(v) != "fresh" {
			t.Fatalf("Do after panic = %q, want a fresh computation", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do on a key whose computation panicked is still blocked")
	}
}
