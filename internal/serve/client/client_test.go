package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/facility"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/trace"
)

func testAPI(t *testing.T) (*Client, *dataset.Dataset) {
	t.Helper()
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 50
	cfg.NumOrgs = 6
	cfg.MeanQueries = 18
	tr := trace.Generate(cat, cfg, 11)
	d := dataset.Build(tr, dataset.AllSources(), 11)
	m := core.NewDefault()
	tc := models.DefaultTrainConfig()
	tc.Epochs = 2
	tc.EmbedDim = 16
	if err := m.Train(context.Background(), d, tc); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(d, m))
	t.Cleanup(srv.Close)
	return New(srv.URL, WithHTTPClient(srv.Client())), d
}

func TestClientRoundTrips(t *testing.T) {
	c, d := testAPI(t)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Facility != d.Name || h.Users != d.NumUsers {
		t.Fatalf("health mismatch: %+v", h)
	}

	recs, err := c.Recommend(ctx, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Rank != 1 || recs[0].Name == "" {
		t.Fatalf("bad recommendations: %+v", recs)
	}

	batch, err := c.RecommendBatch(ctx, []int{0, 1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 || batch[2].User != 2 || len(batch[2].Recommendations) != 4 {
		t.Fatalf("bad batch: %+v", batch)
	}

	item := d.Train[0][1]
	sim, err := c.Similar(ctx, item, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim) != 4 {
		t.Fatalf("bad similar: %+v", sim)
	}

	exp, err := c.Explain(ctx, d.Train[0][0], d.Test[0][1])
	if err != nil {
		t.Fatal(err)
	}
	if exp.ItemName == "" {
		t.Fatalf("explanation missing item name: %+v", exp)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Endpoints["/v1/recommend"].Count == 0 {
		t.Fatalf("stats missing recommend traffic: %+v", st.Endpoints)
	}
	if st.Cache.Misses == 0 {
		t.Fatalf("stats missing cache accounting: %+v", st.Cache)
	}
}

func TestClientDecodesErrorEnvelope(t *testing.T) {
	c, d := testAPI(t)
	_, err := c.Recommend(context.Background(), d.NumUsers+100, 5)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an *APIError", err)
	}
	if apiErr.Code != "not_found" || apiErr.Status != 404 {
		t.Fatalf("unexpected APIError: %+v", apiErr)
	}

	_, err = c.Recommend(context.Background(), 1, -4)
	if !errors.As(err, &apiErr) || apiErr.Code != "bad_param" {
		t.Fatalf("bad k error: %v", err)
	}
}

// shedOnce answers the first n requests with the server's exact
// load-shed envelope (503 + Retry-After) and everything after with a
// minimal 200 recommend payload.
func shedOnce(n int32, retryAfter string) (http.Handler, *atomic.Int32) {
	var calls atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.Overloaded()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.RecommendResponse{
			User:            1,
			Recommendations: []api.Recommendation{{Rank: 1, Item: 7}},
		})
	})
	return h, &calls
}

// A shed response must surface as *ErrShed carrying the Retry-After
// hint, and unwrap to the overloaded *APIError.
func TestClientTypedShedError(t *testing.T) {
	h, _ := shedOnce(99, "3")
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithHTTPClient(srv.Client()))

	_, err := c.Recommend(context.Background(), 1, 5)
	var shed *ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("error %v is not an *ErrShed", err)
	}
	if shed.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %v, want 3s", shed.RetryAfter)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "overloaded" || apiErr.Status != 503 {
		t.Fatalf("ErrShed does not unwrap to the overloaded envelope: %+v", apiErr)
	}
}

// WithRetryOnShed retries exactly once after the Retry-After wait and
// succeeds when capacity has freed up.
func TestClientRetriesOnceOnShed(t *testing.T) {
	h, calls := shedOnce(1, "0")
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithHTTPClient(srv.Client()), WithRetryOnShed())

	recs, err := c.Recommend(context.Background(), 1, 5)
	if err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	if len(recs) != 1 || recs[0].Item != 7 {
		t.Fatalf("unexpected payload after retry: %+v", recs)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2 (original + one retry)", calls.Load())
	}

	// Still shedding on the retry: the second ErrShed is returned, not
	// retried again.
	h2, calls2 := shedOnce(99, "0")
	srv2 := httptest.NewServer(h2)
	t.Cleanup(srv2.Close)
	c2 := New(srv2.URL, WithHTTPClient(srv2.Client()), WithRetryOnShed())
	_, err = c2.Recommend(context.Background(), 1, 5)
	var shed *ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("persistent shed not surfaced: %v", err)
	}
	if calls2.Load() != 2 {
		t.Fatalf("server saw %d calls, want exactly 2", calls2.Load())
	}
}
