// Package client is the typed Go consumer of the /v1 discovery API
// served by internal/serve. Response and error shapes come from
// internal/serve/api — the same package the server encodes with — so
// the wire format has one compiled contract and cannot drift. The
// client speaks only HTTP+JSON; it is equally usable against a remote
// deployment or the multi-process router (cmd/router).
package client

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
	"time"

	"repro/internal/serve/api"
)

// Client calls one facility's discovery API.
type Client struct {
	base        string
	hc          *http.Client
	retryOnShed bool
	mode        string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetryOnShed retries a request exactly once when the server sheds
// it at the inflight cap, sleeping for the server's Retry-After hint
// first (respecting ctx cancellation). Off by default: callers with
// their own retry/backoff layer should see every ErrShed.
func WithRetryOnShed() Option { return func(c *Client) { c.retryOnShed = true } }

// WithMode stamps a scoring mode (api.ModeExact or api.ModeANN) on
// every ranking request the client sends — Recommend, RecommendBatch,
// Similar, Nearest, and Analogy. The zero value leaves the server's
// per-endpoint default in force (exact for recommend/similar, ann for
// the query endpoints).
func WithMode(mode string) Option { return func(c *Client) { c.mode = mode } }

// New builds a client for the API at base, e.g. "http://localhost:8080".
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is the decoded uniform error envelope — the shared
// api.Error shape.
type APIError = api.Error

// ErrShed is the typed surface of a 503 load-shed response: the server
// is at its inflight cap and hinted when to come back. It wraps the
// underlying envelope, so errors.As works for both *ErrShed and
// *APIError.
type ErrShed struct {
	RetryAfter time.Duration // the server's Retry-After hint (0 if absent)
	Err        *APIError     // the decoded "overloaded" envelope
}

func (e *ErrShed) Error() string {
	return fmt.Sprintf("%s (retry after %s)", e.Err.Error(), e.RetryAfter)
}

func (e *ErrShed) Unwrap() error { return e.Err }

// Wire shapes re-exported from the shared api package.
type (
	Recommendation      = api.Recommendation
	UserRecommendations = api.UserRecommendations
	ExplainPath         = api.ExplainPath
	Explanation         = api.ExplainResponse
	EndpointStats       = api.EndpointStats
	CacheStats          = api.CacheStats
	ShardStats          = api.ShardStats
	Stats               = api.Stats
	Health              = api.Health
	ReloadResponse      = api.ReloadResponse
	EntityRef           = api.EntityRef
	Neighbor            = api.Neighbor
	NearestResponse     = api.NearestResponse
	AnalogyResponse     = api.AnalogyResponse
	RankingInfo         = api.RankingInfo
	IngestEvent         = api.IngestEvent
	IngestResponse      = api.IngestResponse
)

// User and Item build entity references for the query endpoints.
func User(id int) EntityRef { return EntityRef{Kind: api.KindUser, ID: id} }
func Item(id int) EntityRef { return EntityRef{Kind: api.KindItem, ID: id} }

// Health fetches service status.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.get(ctx, "/v1/health", nil, &out)
	return out, err
}

// rankValues applies the client-wide mode override to a ranking
// request's query parameters.
func (c *Client) rankValues(q url.Values) url.Values {
	if c.mode != "" {
		q.Set("mode", c.mode)
	}
	return q
}

// Recommend fetches the top-k data objects for a user.
func (c *Client) Recommend(ctx context.Context, user, k int) ([]Recommendation, error) {
	var out api.RecommendResponse
	q := c.rankValues(url.Values{"user": {strconv.Itoa(user)}, "k": {strconv.Itoa(k)}})
	err := c.get(ctx, "/v1/recommend", q, &out)
	return out.Recommendations, err
}

// RecommendBatch fetches top-k recommendations for many users in one
// round trip; the server fans them out across its scorer shards.
func (c *Client) RecommendBatch(ctx context.Context, users []int, k int) ([]UserRecommendations, error) {
	body, err := json.Marshal(api.BatchRequest{Users: users, K: k, Mode: c.mode})
	if err != nil {
		return nil, err
	}
	var out api.BatchResponse
	err = c.do(ctx, http.MethodPost, "/v1/recommend:batch", nil, body, &out)
	return out.Results, err
}

// Similar fetches the k items closest to item in the CKG embedding.
func (c *Client) Similar(ctx context.Context, item, k int) ([]Recommendation, error) {
	var out api.SimilarResponse
	q := c.rankValues(url.Values{"item": {strconv.Itoa(item)}, "k": {strconv.Itoa(k)}})
	err := c.get(ctx, "/v1/similar", q, &out)
	return out.Similar, err
}

// Nearest fetches the k entities closest to entity in the embedding
// space. typ filters the result kind ("user", "item", or "any"); empty
// defaults to the anchor's own kind. The full response is returned so
// callers can inspect the ranking block (mode, ef, fallback).
func (c *Client) Nearest(ctx context.Context, entity EntityRef, k int, typ string) (NearestResponse, error) {
	var out NearestResponse
	q := url.Values{"entity": {entity.String()}, "k": {strconv.Itoa(k)}}
	if typ != "" {
		q.Set("type", typ)
	}
	err := c.get(ctx, "/v1/query:nearest", c.rankValues(q), &out)
	return out, err
}

// Analogy solves a - b + c in the embedding space and returns the k
// entities nearest the resulting point, excluding the three anchors.
// typ filters the result kind; empty defaults to a's kind.
func (c *Client) Analogy(ctx context.Context, a, b, cc EntityRef, k int, typ string) (AnalogyResponse, error) {
	var out AnalogyResponse
	q := url.Values{
		"a": {a.String()}, "b": {b.String()}, "c": {cc.String()},
		"k": {strconv.Itoa(k)},
	}
	if typ != "" {
		q.Set("type", typ)
	}
	err := c.get(ctx, "/v1/query:analogy", c.rankValues(q), &out)
	return out, err
}

// Explain fetches the knowledge paths linking a user's history to item.
func (c *Client) Explain(ctx context.Context, user, item int) (Explanation, error) {
	var out Explanation
	q := url.Values{"user": {strconv.Itoa(user)}, "item": {strconv.Itoa(item)}}
	err := c.get(ctx, "/v1/explain", q, &out)
	return out, err
}

// Stats fetches the server's serving metrics.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.get(ctx, "/v1/stats", nil, &out)
	return out, err
}

// Ingest commits a batch of observed query events; the response
// acknowledges the durable ledger commit. Only meaningful against a
// server started with live ingestion enabled.
func (c *Client) Ingest(ctx context.Context, events []IngestEvent) (IngestResponse, error) {
	body, err := json.Marshal(api.IngestRequest{Events: events})
	if err != nil {
		return IngestResponse{}, err
	}
	var out IngestResponse
	err = c.do(ctx, http.MethodPost, "/v1/ingest", nil, body, &out)
	return out, err
}

// Reload triggers a hot reload and returns the per-shard outcomes.
func (c *Client) Reload(ctx context.Context) (ReloadResponse, error) {
	var out ReloadResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/reload", nil, nil, &out)
	return out, err
}

func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	return c.do(ctx, http.MethodGet, path, q, nil, out)
}

// do performs one API round trip (body is replayable bytes so a shed
// retry can resend it), decoding the error envelope on any non-2xx
// status: load sheds become *ErrShed, everything else *APIError.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, body []byte, out any) error {
	err := c.once(ctx, method, path, q, body, out)
	if !c.retryOnShed {
		return err
	}
	shed, ok := err.(*ErrShed)
	if !ok {
		return err
	}
	if wait := shed.RetryAfter; wait > 0 {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return c.once(ctx, method, path, q, body, out)
}

func (c *Client) once(ctx context.Context, method, path string, q url.Values, body []byte, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var env api.ErrorEnvelope
		if jsonErr := json.Unmarshal(raw, &env); jsonErr == nil && env.Error != nil {
			if resp.StatusCode == http.StatusServiceUnavailable && env.Error.Code == "overloaded" {
				return &ErrShed{RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")), Err: env.Error}
			}
			return env.Error
		}
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// parseRetryAfter reads the delay-seconds form of Retry-After; the
// HTTP-date form (rare on APIs) and absent/garbage values yield 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}
