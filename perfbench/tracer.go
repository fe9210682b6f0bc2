package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only by this benchmark, at the boundaries it owns:
// the client call, the client's round trip, the first-hop handler (the
// router's, or the node's on a direct workload), the router's outbound
// round trip, and the node's handler. One request's spans share an id,
// carried across an HTTP hop by spanHeader and within a server by the
// request context (the router forwards its inbound request's context,
// so its RoundTripper sees the id the handler set).

// spanKind names a recorded boundary.
type spanKind int

const (
	spanClient   spanKind = iota // the load client's call, send to decoded response
	spanClientRT                 // the client's HTTP round trip, to the last body byte
	spanFront                    // the router's handler
	spanHopRT                    // the router's round trip to the owning node
	spanNode                     // the node's handler
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"client", "client_rt", "router", "hop_rt", "node"}

// spanHeader carries a request's span id across an HTTP hop.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// span is one boundary's interval, as offsets from the tracer's epoch.
type span struct {
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) set() bool { return s.End > 0 }

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRec holds one request's spans.
type spanRec [numSpanKinds]span

// tracer records spans in memory while it is on. A nil tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	recs  []spanRec // request id i+1 at index i
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin allocates a span id for one operation and carries it in ctx.
func (t *tracer) begin(ctx context.Context) (context.Context, uint64) {
	if t == nil || !t.on.Load() {
		return ctx, 0
	}
	t.mu.Lock()
	t.recs = append(t.recs, spanRec{})
	id := uint64(len(t.recs))
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), id
}

// record stores one boundary's interval for request id (0 = untraced).
func (t *tracer) record(id uint64, kind spanKind, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	if id <= uint64(len(t.recs)) {
		t.recs[id-1][kind] = span{Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	}
	t.mu.Unlock()
}

// records returns the recorded requests in the order they began.
func (t *tracer) records() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.recs...)
}

// spanID reads the id a request carries, from its context or header.
func spanID(r *http.Request) uint64 {
	if id, ok := r.Context().Value(spanKey{}).(uint64); ok {
		return id
	}
	id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	return id
}

// handler wraps h so every traced request records a span of kind.
func (t *tracer) handler(kind spanKind, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := spanID(r)
		if id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.record(id, kind, start, time.Now())
	})
}

// transport wraps base so every traced request carries its span id in
// spanHeader and records a span of kind that ends with the last
// response byte.
func (t *tracer) transport(kind spanKind, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		id := spanID(r)
		if id == 0 {
			return base.RoundTrip(r)
		}
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		start := time.Now()
		resp, err := base.RoundTrip(r)
		if err != nil {
			t.record(id, kind, start, time.Now())
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.record(id, kind, start, time.Now()) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}
