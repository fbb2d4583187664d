package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/serve"
)

// maxBackendBody bounds how much of a backend response the router will
// buffer. Views travel worker-to-worker, not through the router, so
// router responses are JSON in the tens of kilobytes; 16 MiB is far
// above any legitimate payload.
const maxBackendBody = 16 << 20

// backend is one worker in the pool: its base URL, the health state
// the prober maintains, the ensemble fingerprints learned from its
// health responses, and its per-backend instruments.
type backend struct {
	index int
	base  string   // "http://host:port", no trailing slash
	url   *url.URL // base, parsed once in New; every request copies it
	hc    *http.Client

	// indexStr and spanName are the index pre-rendered for trace
	// annotations and client-call span names, so the tracing-off path
	// never concatenates (and so never allocates).
	indexStr string
	spanName string

	healthy   atomic.Bool
	ensembles atomic.Pointer[map[string]string] // name → fingerprint; "" → the default ensemble's

	requests *obs.Counter
	errors   *obs.Counter
}

// newBackend parses the base URL once; an unparsable or host-less base
// is a configuration error reported at start-up, not a 503 on every
// routed request.
func newBackend(index int, base string, hc *http.Client, rec *obs.Recorder) (*backend, error) {
	base = strings.TrimSuffix(base, "/")
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("shard: backend %d: %w", index, err)
	}
	if u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, fmt.Errorf("shard: backend %d: %q is not an http(s)://host:port URL", index, base)
	}
	b := &backend{
		index:    index,
		base:     base,
		url:      u,
		hc:       hc,
		indexStr: strconv.Itoa(index),
		spanName: "backend." + strconv.Itoa(index),
		requests: rec.Counter("shard.backend_requests." + strconv.Itoa(index)),
		errors:   rec.Counter("shard.backend_errors." + strconv.Itoa(index)),
	}
	empty := map[string]string{}
	b.ensembles.Store(&empty)
	return b, nil
}

// forwardedHeaders are the backend response headers the router replays
// to its client: the wire-codec version (so a codec mismatch is
// diagnosable through the router) and the job trace ID (so submit/poll
// responses stay navigable to the worker-side job trace).
var forwardedHeaders = []string{serve.CodecVersionHeader, serve.JobTraceHeader}

// call is one client request as the router replays it to a backend.
type call struct {
	method, path, rawQuery string
	contentType            string
	// client is the quota principal (serve.ClientKey): the client's
	// X-Client-ID, or its host when the header is absent.
	client string
	body   []byte
}

// newCall captures what the router replays of r, with body as the
// already-buffered request body (nil for none).
func newCall(r *http.Request, body []byte) call {
	return call{
		method:      r.Method,
		path:        r.URL.Path,
		rawQuery:    r.URL.RawQuery,
		contentType: r.Header.Get("Content-Type"),
		client:      serve.ClientKey(r),
		body:        body,
	}
}

// request builds a request for path?rawQuery on this backend from the
// URL parsed in New, so building one parses no URL.
func (b *backend) request(ctx context.Context, method, path, rawQuery string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "", rd)
	if err != nil {
		return nil, err
	}
	*req.URL = *b.url
	req.URL.Path += path
	req.URL.RawPath = ""
	req.URL.RawQuery = rawQuery
	req.Host = req.URL.Host
	return req, nil
}

// forward replays one client request against this backend and buffers
// the response. A non-nil error means the backend did not produce a
// response (transport failure) — the caller should fail over; an HTTP
// error status comes back as a response for the caller to classify.
func (b *backend) forward(ctx context.Context, c call) (*response, error) {
	req, err := b.request(ctx, c.method, c.path, c.rawQuery, c.body)
	if err != nil {
		return nil, err
	}
	if c.contentType != "" {
		req.Header.Set("Content-Type", c.contentType)
	}
	if c.client != "" {
		req.Header.Set("X-Client-ID", c.client)
	}
	// Propagate the router's trace context so the worker adopts the
	// same trace ID, with the current (client-call) span as the remote
	// parent. With tracing off the context carries no trace, the render
	// returns "", and nothing is injected or allocated.
	if tp := obs.TraceFromContext(ctx).TraceParent(obs.SpanFromContext(ctx)); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	b.requests.Inc()
	resp, err := b.hc.Do(req)
	if err != nil {
		b.errors.Inc()
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := b.readBody(resp)
	if err != nil {
		b.errors.Inc()
		return nil, err
	}
	if resp.StatusCode/100 == 5 {
		b.errors.Inc()
	}
	res := &response{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        buf,
		backend:     b.index,
	}
	for _, h := range forwardedHeaders {
		if v := resp.Header.Get(h); v != "" {
			if res.header == nil {
				res.header = make(map[string]string, len(forwardedHeaders))
			}
			res.header[h] = v
		}
	}
	return res, nil
}

// readBody buffers a backend response body of at most maxBackendBody
// bytes. A declared Content-Length is read into a buffer of exactly
// that size; a body of unknown length (chunked) goes through a bounded
// ReadAll.
func (b *backend) readBody(resp *http.Response) ([]byte, error) {
	tooLarge := func() error {
		return fmt.Errorf("backend %d response exceeds %d bytes", b.index, maxBackendBody)
	}
	if n := resp.ContentLength; n >= 0 {
		if n > maxBackendBody {
			return nil, tooLarge()
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxBackendBody+1))
	if err != nil {
		return nil, err
	}
	if len(buf) > maxBackendBody {
		return nil, tooLarge()
	}
	return buf, nil
}

// scrapeMetrics fetches this backend's Prometheus exposition for the
// fleet-wide metrics merge.
func (b *backend) scrapeMetrics(ctx context.Context) (string, error) {
	req, err := b.request(ctx, http.MethodGet, "/v1/metrics", "", nil)
	if err != nil {
		return "", err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBackendBody))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("backend %d: %s", b.index, resp.Status)
	}
	return string(body), nil
}

// probe refreshes the backend's health and ensemble fingerprints from
// GET /v1/healthz followed by GET /v1/readyz — a worker that is up but
// draining (readyz 503) is unhealthy for routing purposes.
func (b *backend) probe(ctx context.Context) error {
	var health struct {
		Ensembles []struct {
			Name        string `json:"name"`
			Fingerprint string `json:"fingerprint"`
		} `json:"ensembles"`
		Default string `json:"default_ensemble"`
	}
	if err := b.getJSON(ctx, "/v1/healthz", &health); err != nil {
		b.healthy.Store(false)
		return err
	}
	if err := b.getJSON(ctx, "/v1/readyz", &struct{}{}); err != nil {
		b.healthy.Store(false)
		return err
	}
	m := make(map[string]string, len(health.Ensembles))
	for _, e := range health.Ensembles {
		m[e.Name] = e.Fingerprint
	}
	if fp, ok := m[health.Default]; ok { // names are never empty
		m[""] = fp
	}
	b.ensembles.Store(&m)
	b.healthy.Store(true)
	return nil
}

// getJSON fetches one backend endpoint and decodes a 200 JSON body.
func (b *backend) getJSON(ctx context.Context, path string, out any) error {
	req, err := b.request(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBackendBody))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("backend %d: %s: %s", b.index, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}

// fingerprint resolves an ensemble name ("" = the backend's default
// ensemble) against this backend's last-probed health response.
func (b *backend) fingerprint(name string) (string, bool) {
	fp, ok := (*b.ensembles.Load())[name]
	return fp, ok
}
