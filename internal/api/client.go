package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Default retry posture: a saturated blkd answers 429 with a
// Retry-After it chose deliberately (backpressure, not failure), so the
// typed client waits it out a bounded number of times before surfacing
// the rejection.
const (
	// DefaultRetries is how many 429 rejections a request absorbs before
	// the error surfaces.
	DefaultRetries = 3
	// DefaultMaxBackoff caps one wait, whatever Retry-After advertises.
	DefaultMaxBackoff = 5 * time.Second
	// fallbackRetryAfter is used when a 429 carries no parseable
	// Retry-After header.
	fallbackRetryAfter = time.Second
)

// Client is the typed HTTP client for a blkd instance. The zero HTTP
// client (http.DefaultClient) is used unless overridden with
// WithHTTPClient; all methods honor ctx for cancellation and deadlines.
//
// On 429 the client honors Retry-After with a capped, deterministic
// backoff — it sleeps exactly the advertised duration (capped at
// DefaultMaxBackoff) and retries, up to DefaultRetries times — instead
// of surfacing the rejection on first sight. The waits are a pure
// function of the server's responses; the clock only enters through
// sleep, which in-package tests replace so they pin the backoff
// schedule without real time passing.
type Client struct {
	base  string
	hc    *http.Client
	sleep func(time.Duration)
}

// NewClient returns a client for the service rooted at base, e.g.
// "http://127.0.0.1:8080".
func NewClient(base string) *Client {
	return &Client{
		base:  strings.TrimSuffix(base, "/"),
		hc:    http.DefaultClient,
		sleep: time.Sleep,
	}
}

// WithHTTPClient swaps the underlying HTTP client (timeouts, transport
// reuse) and returns the Client for chaining.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

// retryAfter extracts the advertised wait from a 429, falling back to
// fallbackRetryAfter and capping at DefaultMaxBackoff.
func (c *Client) retryAfter(resp *http.Response) time.Duration {
	wait := fallbackRetryAfter
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		wait = time.Duration(secs) * time.Second
	}
	if wait > DefaultMaxBackoff {
		wait = DefaultMaxBackoff
	}
	return wait
}

// send issues method path with body, absorbing up to the retry budget
// of 429 rejections. The caller owns the returned response body.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= DefaultRetries {
			return resp, nil
		}
		// Rejected for saturation with retries left: drain the rejection
		// and wait the advertised backoff.
		wait := c.retryAfter(resp)
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
		c.sleep(wait)
	}
}

// do issues one request and decodes the response body into out (unless
// out is nil), translating non-2xx responses into *Error.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) (CacheStatus, error) {
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return "", err
	}
	// Close failures after a full read carry no information we can act on.
	defer func() { _ = resp.Body.Close() }()
	status := CacheStatus(resp.Header.Get(CacheHeader))
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return status, err
	}
	if resp.StatusCode/100 != 2 {
		var env errorEnvelope
		if jErr := json.Unmarshal(data, &env); jErr == nil && env.Error != nil {
			env.Error.Status = resp.StatusCode
			return status, env.Error
		}
		return status, Errf(resp.StatusCode, "http_error", "%s %s: status %d", method, path, resp.StatusCode)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return status, fmt.Errorf("api: decoding %s response: %w", path, err)
		}
	}
	return status, nil
}

// Session runs one session and reports how the response was produced
// (cache hit, miss, or coalesced onto an in-flight execution).
func (c *Client) Session(ctx context.Context, req SessionRequest) (SessionResponse, CacheStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SessionResponse{}, "", err
	}
	var out SessionResponse
	status, err := c.do(ctx, http.MethodPost, "/v1/session", body, &out)
	return out, status, err
}

// Sweep fans a parameter sweep out on the server.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (SweepResponse, CacheStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SweepResponse{}, "", err
	}
	var out SweepResponse
	status, err := c.do(ctx, http.MethodPost, "/v1/sweep", body, &out)
	return out, status, err
}

// Fleet runs a population simulation and reports how the response was
// produced. The request is sent with Stream forced off; use FleetStream
// for progress events.
func (c *Client) Fleet(ctx context.Context, req FleetRequest) (FleetResponse, CacheStatus, error) {
	req.Stream = false
	body, err := json.Marshal(req)
	if err != nil {
		return FleetResponse{}, "", err
	}
	var out FleetResponse
	status, err := c.do(ctx, http.MethodPost, "/v1/fleet", body, &out)
	return out, status, err
}

// FleetStream runs a population simulation in streaming mode: progress
// events invoke onProgress as they arrive (may be nil), and the final
// aggregate is returned. Streamed runs bypass the server's result cache.
func (c *Client) FleetStream(ctx context.Context, req FleetRequest, onProgress func(FleetProgress)) (FleetResponse, error) {
	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		return FleetResponse{}, err
	}
	resp, err := c.send(ctx, http.MethodPost, "/v1/fleet", body)
	if err != nil {
		return FleetResponse{}, err
	}
	// Close failures after a full read carry no information we can act on.
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var env errorEnvelope
		if jErr := json.Unmarshal(data, &env); jErr == nil && env.Error != nil {
			env.Error.Status = resp.StatusCode
			return FleetResponse{}, env.Error
		}
		return FleetResponse{}, Errf(resp.StatusCode, "http_error", "POST /v1/fleet: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		if err := ctx.Err(); err != nil {
			return FleetResponse{}, err
		}
		var ev FleetEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return FleetResponse{}, fmt.Errorf("api: fleet stream ended without a result")
			}
			return FleetResponse{}, fmt.Errorf("api: decoding fleet stream: %w", err)
		}
		if ev.Progress != nil && onProgress != nil {
			onProgress(*ev.Progress)
		}
		if ev.Result != nil {
			return *ev.Result, nil
		}
	}
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	_, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// ClusterStats fetches the aggregate counters of a routing blkd.
func (c *Client) ClusterStats(ctx context.Context) (ClusterStats, error) {
	var out ClusterStats
	_, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	return err
}
