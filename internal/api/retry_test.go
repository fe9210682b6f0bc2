package api

// Satellite of the cluster PR: the typed client's 429 posture. A
// saturated blkd rejects with Retry-After as deliberate backpressure;
// the client must wait exactly the advertised (capped) duration and
// retry within its budget, with the waits observable through the
// injected sleep rather than real time.

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// rejectingHandler answers 429 with the given Retry-After for the first
// rejections requests, then succeeds.
func rejectingHandler(rejections *atomic.Int64, retryAfter string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rejections.Add(-1) >= 0 {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":{"code":"saturated","message":"queue full"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{}`))
	})
}

// recordingClient is a default client whose backoff waits are appended
// to slept instead of passing in real time.
func recordingClient(base string, slept *[]time.Duration) *Client {
	c := NewClient(base)
	c.sleep = func(d time.Duration) { *slept = append(*slept, d) }
	return c
}

func TestClientRetriesHonorRetryAfter(t *testing.T) {
	var rejections atomic.Int64
	rejections.Store(2)
	ts := httptest.NewServer(rejectingHandler(&rejections, "2"))
	defer ts.Close()

	var slept []time.Duration
	if err := recordingClient(ts.URL, &slept).Health(t.Context()); err != nil {
		t.Fatalf("request failed despite retry budget: %v", err)
	}
	if len(slept) != 2 || slept[0] != 2*time.Second || slept[1] != 2*time.Second {
		t.Errorf("backoff schedule = %v, want [2s 2s] (the advertised Retry-After, twice)", slept)
	}
}

func TestClientCapsRetryAfter(t *testing.T) {
	var rejections atomic.Int64
	rejections.Store(1)
	ts := httptest.NewServer(rejectingHandler(&rejections, "3600"))
	defer ts.Close()

	var slept []time.Duration
	if err := recordingClient(ts.URL, &slept).Health(t.Context()); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != DefaultMaxBackoff {
		t.Errorf("backoff schedule = %v, want the %v cap, not the advertised hour", slept, DefaultMaxBackoff)
	}
}

func TestClientFallbackWhenRetryAfterMissing(t *testing.T) {
	var rejections atomic.Int64
	rejections.Store(1)
	ts := httptest.NewServer(rejectingHandler(&rejections, ""))
	defer ts.Close()

	var slept []time.Duration
	if err := recordingClient(ts.URL, &slept).Health(t.Context()); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != time.Second {
		t.Errorf("backoff schedule = %v, want the 1s fallback", slept)
	}
}

func TestClientSurfacesRejectionPastBudget(t *testing.T) {
	var rejections atomic.Int64
	rejections.Store(100)
	ts := httptest.NewServer(rejectingHandler(&rejections, "1"))
	defer ts.Close()

	var slept []time.Duration
	err := recordingClient(ts.URL, &slept).Health(t.Context())
	aerr, ok := err.(*Error)
	if !ok || aerr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want a 429 *Error after the budget", err)
	}
	if len(slept) != DefaultRetries {
		t.Errorf("slept %d times, want exactly the %d-retry budget", len(slept), DefaultRetries)
	}
}
