package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"burstlink/internal/api"
)

// These are the runtime halves of the guarantees gatecheck proves
// statically (see internal/lint/gatecheck.go and the gatefix fixture):
// an admission slot must come back on every path out of admit —
// clients that give up while queued and handlers that panic included.
// A leaked slot never fails loudly; it just lowers the gate's effective
// capacity until blkd stops admitting work, so each test finishes by
// draining the gate to capacity to prove every slot returned.

// drainGate asserts exactly want slots are free, then returns them.
func drainGate(t *testing.T, s *Server, want int) {
	t.Helper()
	got := 0
	for got <= want && s.gate.TryAcquire() {
		got++
	}
	for i := 0; i < got; i++ {
		s.gate.Release()
	}
	if got != want {
		t.Fatalf("gate has %d free slots, want %d — a slot leaked (or was over-released)", got, want)
	}
}

// TestQueuedTimeoutDoesNotLeakSlot: a client that gives up while queued
// behind a full gate must not consume a slot — the Acquire error path
// returns without ever holding one. White-box through admit with an
// expiring request context, which is exactly what net/http cancels when
// the client disconnects.
func TestQueuedTimeoutDoesNotLeakSlot(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	ran := false
	h := s.admit(func(w http.ResponseWriter, r *http.Request) { ran = true })

	// Hold the only slot so the request has to queue.
	if !s.gate.TryAcquire() {
		t.Fatal("fresh gate has no slot")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/session", nil).WithContext(ctx)
	h(httptest.NewRecorder(), req) // queues, then the context expires

	if ran {
		t.Fatal("handler ran despite the held slot and expired context")
	}
	if got := s.queued.Load(); got != 0 {
		t.Fatalf("queued counter = %d after the client gave up, want 0", got)
	}

	s.gate.Release()
	drainGate(t, s, 1)
}

// TestPanickingHandlerDoesNotLeakSlot: the deferred Release must run
// during panic unwinding — the exact path a leak would hide on, and the
// reason gatecheck only accepts defers as covering panic edges.
func TestPanickingHandlerDoesNotLeakSlot(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})

	// Twice, to prove the slot from the first panic was really returned
	// and not just masked by remaining capacity.
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("handler panic did not propagate through admit")
				}
			}()
			h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/session", nil))
		}()
	}
	drainGate(t, s, 2)
}

// TestPanickingComputeFailsFollowers: a computation that panics must
// not strand the requests coalesced onto it. A follower gets a 500
// "internal" error instead of an empty body or an endless wait (which
// would ignore its deadline and keep its admission slot), and the next
// request for the scenario computes afresh.
func TestPanickingComputeFailsFollowers(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		s.execute(ctx, "k", func() ([]byte, *api.Error) {
			close(started)
			<-release
			panic("compute exploded")
		})
	}()
	<-started
	followerErr := make(chan *api.Error, 1)
	go func() {
		_, _, aerr := s.execute(ctx, "k", func() ([]byte, *api.Error) { return []byte("follower"), nil })
		followerErr <- aerr
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the in-flight computation")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if aerr := <-followerErr; aerr == nil || aerr.Status != http.StatusInternalServerError || aerr.Code != "internal" {
		t.Fatalf("follower error = %v, want a 500 internal error", aerr)
	}
	body, status, aerr := s.execute(ctx, "k", func() ([]byte, *api.Error) { return []byte("fresh"), nil })
	if aerr != nil || status != api.CacheMiss || string(body) != "fresh" {
		t.Fatalf("after the panic: %q, %q, %v; want a fresh computation", body, status, aerr)
	}
}
