// Package api is the compiled contract for the /v1 discovery wire
// protocol. It holds every request, response, and error shape exchanged
// between the server (internal/serve), the typed Go client
// (internal/serve/client), and the multi-process router
// (internal/router), so the two sides of the wire import one set of
// DTOs and cannot drift: a field added to a response here is
// simultaneously encoded by the server and decoded by the client.
//
// The package deliberately imports nothing outside the standard
// library — it describes bytes on the wire, not server internals — and
// is therefore equally usable by out-of-process consumers.
package api

import (
	"fmt"
	"net/http"
)

// Error is the uniform error envelope payload carried by every non-2xx
// response: {"error": {"code": "...", "message": "...", "status": N,
// "trace_id": "..."}}. TraceID is stamped by the server from the
// request context so failures are correlatable with structured logs
// and /v1/debug/traces.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
	TraceID string `json:"trace_id,omitempty"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s (%d): %s", e.Code, e.Status, e.Message)
}

// ErrorEnvelope is the top-level shape of every error response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// Errorf builds an Error with a formatted message.
func Errorf(code string, status int, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), Status: status}
}

// BadParam is a 400 bad_param error: the request itself is malformed.
func BadParam(format string, args ...any) *Error {
	return Errorf("bad_param", http.StatusBadRequest, format, args...)
}

// NotFound is a 404 not_found error: a well-formed ID names no
// resource.
func NotFound(format string, args ...any) *Error {
	return Errorf("not_found", http.StatusNotFound, format, args...)
}

// Timeout is the 504 envelope for requests that outlive their
// deadline.
func Timeout() *Error {
	return &Error{Code: "timeout", Message: "request deadline exceeded", Status: http.StatusGatewayTimeout}
}

// Overloaded is the 503 envelope for load-shed requests; it travels
// with a Retry-After header.
func Overloaded() *Error {
	return &Error{
		Code:    "overloaded",
		Message: "server is at its inflight request cap; retry shortly",
		Status:  http.StatusServiceUnavailable,
	}
}

// NoEmbeddings is the 503 envelope for semantic queries routed to a
// shard whose scorer has no embedding geometry (it is serving the
// popularity fallback): nearest/analogy are defined on the embedding
// space and have no degraded approximation.
func NoEmbeddings() *Error {
	return &Error{
		Code:    "degraded",
		Message: "shard is serving the popularity fallback; semantic queries need model embeddings",
		Status:  http.StatusServiceUnavailable,
	}
}

// Recommendation is one ranked data object.
type Recommendation struct {
	Rank     int     `json:"rank"`
	Item     int     `json:"item"`
	Name     string  `json:"name"`
	Site     string  `json:"site"`
	DataType string  `json:"dataType"`
	Score    float64 `json:"score"`
}

// Health is the GET /v1/health payload.
type Health struct {
	Degraded bool   `json:"degraded"`
	Facility string `json:"facility"`
	Items    int    `json:"items"`
	Shards   int    `json:"shards"`
	Status   string `json:"status"`
	Users    int    `json:"users"`
}

// RecommendResponse is the GET /v1/recommend payload. Facility echoes
// the facility filter when one was applied on a federated snapshot;
// omitted on unfiltered requests.
type RecommendResponse struct {
	Degraded        bool             `json:"degraded"`
	Facility        string           `json:"facility,omitempty"`
	Ranking         RankingInfo      `json:"ranking"`
	Recommendations []Recommendation `json:"recommendations"`
	User            int              `json:"user"`
}

// BatchRequest is the POST /v1/recommend:batch body. Mode selects the
// scoring mode for the whole batch; Modes optionally spells it per
// user, but every entry must agree (a mixed-mode batch is a 400, never
// a silent default) — see Validator.ResolveBatchMode.
type BatchRequest struct {
	Users []int    `json:"users"`
	K     int      `json:"k"`
	Mode  string   `json:"mode,omitempty"`
	Modes []string `json:"modes,omitempty"`
}

// UserRecommendations pairs a user with their ranked items. Degraded
// is set per user when that user's owning shard answered from the
// popularity fallback; it is omitted on full-quality answers so the
// single-shard response shape is unchanged.
type UserRecommendations struct {
	User            int              `json:"user"`
	Recommendations []Recommendation `json:"recommendations"`
	Degraded        bool             `json:"degraded,omitempty"`
}

// BatchResponse is the POST /v1/recommend:batch payload. Degraded is
// true when any user in the batch was answered by the fallback.
// Ranking reports the batch-wide scoring mode; Fallback is set when
// any user's shard fell back to exhaustive scoring.
type BatchResponse struct {
	Degraded bool                  `json:"degraded"`
	K        int                   `json:"k"`
	Ranking  RankingInfo           `json:"ranking"`
	Results  []UserRecommendations `json:"results"`
}

// SimilarResponse is the GET /v1/similar payload.
type SimilarResponse struct {
	Degraded bool             `json:"degraded"`
	Item     int              `json:"item"`
	Ranking  RankingInfo      `json:"ranking"`
	Similar  []Recommendation `json:"similar"`
}

// ExplainPath is one knowledge path linking history to a target item.
type ExplainPath struct {
	From string `json:"from"`
	Path string `json:"path"`
}

// ExplainResponse is the GET /v1/explain payload. It carries the same
// top-level degraded field as the ranking endpoints.
type ExplainResponse struct {
	Degraded bool          `json:"degraded"`
	Item     int           `json:"item"`
	ItemName string        `json:"itemName"`
	Paths    []ExplainPath `json:"paths"`
	User     int           `json:"user"`
}

// ShardReload is one shard's outcome in a POST /v1/admin/reload
// response.
type ShardReload struct {
	Shard    int    `json:"shard"`
	Status   string `json:"status"` // "reloaded" or "failed"
	Degraded bool   `json:"degraded"`
	Error    string `json:"error,omitempty"`
}

// ReloadResponse is the POST /v1/admin/reload payload: the aggregate
// outcome plus per-shard reporting.
type ReloadResponse struct {
	Degraded bool          `json:"degraded"`
	Shards   []ShardReload `json:"shards"`
	Status   string        `json:"status"`
}

// Delivery methods accepted on ingested query events, mirroring the
// trace schema's streaming/download split.
const (
	MethodStreaming = "streaming"
	MethodDownload  = "download"
)

// IngestEvent is one observed query event in a POST /v1/ingest body.
// User and Item are facility indices; an index equal to the current
// count introduces a new user or item (dense growth — the server
// assigns it the next CKG entity ID). Method defaults to "streaming";
// Unix defaults to the server's receive time.
type IngestEvent struct {
	User     int    `json:"user"`
	Item     int    `json:"item"`
	DataType int    `json:"data_type,omitempty"`
	Method   string `json:"method,omitempty"`
	Unix     int64  `json:"unix,omitempty"`
}

// IngestRequest is the POST /v1/ingest body: one batch of query
// events, committed to the ledger atomically.
type IngestRequest struct {
	Events []IngestEvent `json:"events"`
}

// IngestResponse acknowledges a durably committed batch. Chain is the
// ledger's Merkle chain hash after this batch (hex) — an auditable
// commitment to the entire event history up to and including it.
type IngestResponse struct {
	Batch      uint64 `json:"batch"`
	Events     int    `json:"events"`
	Chain      string `json:"chain"`
	Users      int    `json:"users"`
	Items      int    `json:"items"`
	DeltaEdges int    `json:"delta_edges"`
}

// CompactResponse is the POST /v1/admin/compact payload: the shape of
// the freshly frozen graph now serving.
type CompactResponse struct {
	Status     string `json:"status"`
	Entities   int    `json:"entities"`
	Edges      int    `json:"edges"`
	Generation uint64 `json:"generation"`
}

// IngestStats is the live-ingestion block of /v1/stats, present only
// when the server runs with a ledger.
type IngestStats struct {
	Batches       uint64 `json:"batches"`
	Events        uint64 `json:"events"`
	Segments      int    `json:"segments"`
	LedgerBytes   int64  `json:"ledger_bytes"`
	DeltaEdges    int    `json:"delta_edges"`
	DeltaEntities int    `json:"delta_entities"`
	Generation    uint64 `json:"generation"`
	Users         int    `json:"users"`
	Items         int    `json:"items"`
}

// EndpointStats is the per-endpoint block of /v1/stats.
type EndpointStats struct {
	Count  uint64            `json:"count"`
	Errors uint64            `json:"errors"`
	Status map[string]uint64 `json:"status"`
	P50ms  float64           `json:"p50_ms"`
	P95ms  float64           `json:"p95_ms"`
	P99ms  float64           `json:"p99_ms"`
}

// CacheStats is the score-cache block of /v1/stats. Through cmd/router
// the top-level block aggregates every backend; per-shard figures live
// in ShardStats.
type CacheStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
	Cap     int     `json:"cap"`
}

// ShardStats is one scorer shard's block in /v1/stats.
type ShardStats struct {
	Shard    int        `json:"shard"`
	Degraded bool       `json:"degraded"`
	Inflight int64      `json:"inflight"`
	Requests uint64     `json:"requests"`
	Cache    CacheStats `json:"cache"`
}

// SLOStats is one evaluated service-level objective in the /v1/stats
// "slo" block: the declaration (name, scope, objective, target,
// window) plus the evaluated span's compliance and error-budget burn.
// An endpoint of "" means the objective covers all traffic; an
// objective_ms of 0 means the SLO is availability-only (good = non-5xx).
type SLOStats struct {
	Name          string  `json:"name"`
	Endpoint      string  `json:"endpoint,omitempty"`
	ObjectiveMS   float64 `json:"objective_ms,omitempty"`
	Target        float64 `json:"target"`
	WindowSeconds float64 `json:"window_seconds"`
	Total         float64 `json:"total"`
	Good          float64 `json:"good"`
	Compliance    float64 `json:"compliance"`
	BurnRate      float64 `json:"burn_rate"`
	Healthy       bool    `json:"healthy"`
}

// FacilityStats is one member facility's block in a federated
// /v1/stats: its name and the half-open user/item windows it owns in
// the merged entity space (BuildFederated lays facilities out
// contiguously, so a window fully describes ownership).
type FacilityStats struct {
	Name   string `json:"name"`
	Users  int    `json:"users"`
	Items  int    `json:"items"`
	UserLo int    `json:"user_lo"`
	UserHi int    `json:"user_hi"`
	ItemLo int    `json:"item_lo"`
	ItemHi int    `json:"item_hi"`
}

// Stats is the full /v1/stats payload. Facilities is present only on
// federated snapshots, one block per member facility in part order.
type Stats struct {
	Facility   string                   `json:"facility"`
	Facilities []FacilityStats          `json:"facilities,omitempty"`
	UptimeMS   float64                  `json:"uptime_ms"`
	Inflight   int64                    `json:"inflight"`
	Ready      bool                     `json:"ready"`
	Degraded   uint64                   `json:"degraded_requests"`
	Shed       uint64                   `json:"shed_requests"`
	Reloads    uint64                   `json:"reloads"`
	ReloadErr  uint64                   `json:"reload_failures"`
	Limits     Limits                   `json:"limits"`
	SLO        []SLOStats               `json:"slo,omitempty"`
	ANN        ANNStats                 `json:"ann"`
	Cache      CacheStats               `json:"cache"`
	Ingest     *IngestStats             `json:"ingest,omitempty"`
	Endpoints  map[string]EndpointStats `json:"endpoints"`
	Shards     []ShardStats             `json:"shards"`
}
