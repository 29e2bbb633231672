package api

import (
	"encoding/json"
	"strconv"
	"strings"
)

// Scoring modes for the ranking endpoints. Exact scores the full
// catalog; ann answers from the HNSW index over the snapshot
// embeddings, falling back to exact when no index is available.
const (
	ModeExact = "exact"
	ModeANN   = "ann"
)

// RankingInfo reports how a ranked response was produced: the scoring
// mode that actually ran, the ef breadth used when the ANN index
// answered, and whether an ann request fell back to exhaustive scoring
// (index absent, still building, or the scorer has no embedding
// geometry).
type RankingInfo struct {
	Mode     string `json:"mode"`
	EF       int    `json:"ef,omitempty"`
	Fallback bool   `json:"fallback,omitempty"`
}

// Entity kinds addressable by the semantic query endpoints.
const (
	KindUser = "user"
	KindItem = "item"
)

// EntityRef names one node of the embedding space: a user or an item.
// On the wire it is always the compact "kind:id" form ("item:42",
// "user:7") — both in query parameters and as a JSON string in
// response bodies.
type EntityRef struct {
	Kind string `json:"kind"`
	ID   int    `json:"id"`
}

func (r EntityRef) String() string {
	return r.Kind + ":" + strconv.Itoa(r.ID)
}

// MarshalJSON encodes the compact wire form, so response echoes read
// exactly like the parameters that produced them.
func (r EntityRef) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// UnmarshalJSON decodes the compact wire form.
func (r *EntityRef) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	ref, apiErr := ParseEntityRef(s)
	if apiErr != nil {
		return apiErr
	}
	*r = ref
	return nil
}

// ParseEntityRef decodes the "kind:id" query-parameter form.
func ParseEntityRef(s string) (EntityRef, *Error) {
	kind, id, ok := strings.Cut(s, ":")
	if !ok {
		return EntityRef{}, BadParam("entity must be kind:id (e.g. item:42), got %q", s)
	}
	if kind != KindUser && kind != KindItem {
		return EntityRef{}, BadParam("entity kind must be %q or %q, got %q", KindUser, KindItem, kind)
	}
	n, err := strconv.Atoi(id)
	if err != nil {
		return EntityRef{}, BadParam("entity id must be an integer, got %q", id)
	}
	return EntityRef{Kind: kind, ID: n}, nil
}

// Neighbor is one ranked entity in a semantic query response. Name,
// Site, and DataType are filled for items; users carry only the ID.
type Neighbor struct {
	Rank     int     `json:"rank"`
	Kind     string  `json:"kind"`
	ID       int     `json:"id"`
	Name     string  `json:"name,omitempty"`
	Site     string  `json:"site,omitempty"`
	DataType string  `json:"dataType,omitempty"`
	Score    float64 `json:"score"`
}

// NearestResponse is the GET /v1/query:nearest payload: the entities
// closest to the anchor in embedding space under inner product.
// Facility echoes the facility filter when one was applied on a
// federated snapshot.
type NearestResponse struct {
	Degraded  bool        `json:"degraded"`
	Entity    EntityRef   `json:"entity"`
	Facility  string      `json:"facility,omitempty"`
	Type      string      `json:"type"`
	Ranking   RankingInfo `json:"ranking"`
	Neighbors []Neighbor  `json:"neighbors"`
}

// AnalogyResponse is the GET /v1/query:analogy payload: entities
// nearest to the analogy point e_a − e_b + e_c (Tran & Takasu's
// semantic query over KG embeddings — "datasets like A but at site C").
type AnalogyResponse struct {
	Degraded  bool        `json:"degraded"`
	A         EntityRef   `json:"a"`
	B         EntityRef   `json:"b"`
	C         EntityRef   `json:"c"`
	Facility  string      `json:"facility,omitempty"`
	Type      string      `json:"type"`
	Ranking   RankingInfo `json:"ranking"`
	Neighbors []Neighbor  `json:"neighbors"`
}

// ANNStats is the "ann" block of /v1/stats: whether every shard has a
// live index, the slowest per-shard build, the deepest graph, and the
// configured search breadth.
type ANNStats struct {
	Enabled  bool    `json:"enabled"`
	BuildMS  float64 `json:"build_ms"`
	Levels   int     `json:"levels"`
	EfSearch int     `json:"ef_search"`
}
