package api

import "strings"

// Request validation lives with the wire types so every server-side
// entry point — the in-process handlers, the dispatcher, and the
// multi-process router — enforces one set of bounds with one set
// of error messages, and so the bounds themselves are publishable
// through /v1/stats (the Limits block) instead of living as scattered
// per-handler constants.

// Default bounds for the tunable request limits.
const (
	DefaultK         = 10   // k when the caller omits it
	DefaultMaxK      = 200  // largest accepted k
	DefaultMaxBatch  = 256  // most users per recommend:batch call
	DefaultMaxEF     = 4096 // largest accepted ann search breadth
	DefaultMaxIngest = 4096 // most events per /v1/ingest batch
)

// Limits are the documented request bounds, surfaced verbatim in the
// /v1/stats "limits" block so clients can discover them.
type Limits struct {
	MaxK      int `json:"max_k"`
	MaxBatch  int `json:"max_batch"`
	MaxEF     int `json:"max_ef"`
	MaxIngest int `json:"max_ingest"`
}

// DefaultLimits returns the standard bounds.
func DefaultLimits() Limits {
	return Limits{MaxK: DefaultMaxK, MaxBatch: DefaultMaxBatch, MaxEF: DefaultMaxEF, MaxIngest: DefaultMaxIngest}
}

// Validator checks request parameters against one facility's
// dimensions and the configured limits. The zero NumUsers/NumItems
// validator rejects every ID, so construction always flows from a
// loaded dataset.
type Validator struct {
	Limits   Limits
	NumUsers int
	NumItems int

	// Facilities lists the member-facility names of a federated
	// snapshot, in part order. Empty on a single-facility server, where
	// any facility filter is rejected.
	Facilities []string
}

// Facility validates the optional facility filter of the ranking and
// semantic-query endpoints: empty means unfiltered; a filter on a
// single-facility server is malformed (400); a well-formed name that
// matches no member facility is a 404.
func (v Validator) Facility(name string) *Error {
	if name == "" {
		return nil
	}
	if len(v.Facilities) == 0 {
		return BadParam("facility filter requires a federated snapshot; this server hosts a single facility")
	}
	for _, f := range v.Facilities {
		if f == name {
			return nil
		}
	}
	return NotFound("unknown facility %q (federation members: %s)", name, strings.Join(v.Facilities, ", "))
}

// User distinguishes a well-formed ID that names no user (404) from
// malformed input, which the query decoding layer rejects as 400.
func (v Validator) User(user int) *Error {
	if user < 0 || user >= v.NumUsers {
		return NotFound("unknown user %d (facility has %d users)", user, v.NumUsers)
	}
	return nil
}

// Item is the item-ID counterpart of User.
func (v Validator) Item(item int) *Error {
	if item < 0 || item >= v.NumItems {
		return NotFound("unknown item %d (facility has %d items)", item, v.NumItems)
	}
	return nil
}

// K validates an explicitly supplied list length against the
// published bound.
func (v Validator) K(k int) *Error {
	if k < 1 || k > v.Limits.MaxK {
		return BadParam("k must be in [1, %d]", v.Limits.MaxK)
	}
	return nil
}

// KOrDefault resolves k for request bodies where an omitted field
// decodes to zero: zero takes the default, anything else must pass K.
func (v Validator) KOrDefault(k int) (int, *Error) {
	if k == 0 {
		return DefaultK, nil
	}
	if e := v.K(k); e != nil {
		return 0, e
	}
	return k, nil
}

// BatchSize validates a recommend:batch user list's shape: non-empty
// and within the batch bound.
func (v Validator) BatchSize(users []int) *Error {
	if len(users) == 0 {
		return BadParam("users must be non-empty")
	}
	if len(users) > v.Limits.MaxBatch {
		return BadParam("at most %d users per batch, got %d", v.Limits.MaxBatch, len(users))
	}
	return nil
}

// Batch validates shape and membership in one call: BatchSize plus a
// per-user existence check. The first failure wins.
func (v Validator) Batch(users []int) *Error {
	if e := v.BatchSize(users); e != nil {
		return e
	}
	for _, u := range users {
		if e := v.User(u); e != nil {
			return e
		}
	}
	return nil
}

// IngestSize validates a /v1/ingest batch's shape: non-empty and
// within the published event bound. Per-event semantics (ID ranges,
// methods) are checked by the ingest applier, which owns the live
// entity space.
func (v Validator) IngestSize(events []IngestEvent) *Error {
	if len(events) == 0 {
		return BadParam("events must be non-empty")
	}
	max := v.Limits.MaxIngest
	if max == 0 {
		max = DefaultMaxIngest
	}
	if len(events) > max {
		return BadParam("at most %d events per ingest batch, got %d", max, len(events))
	}
	return nil
}

// Mode resolves a scoring-mode parameter: empty takes the exact
// default, anything but the two published modes is a 400.
func (v Validator) Mode(mode string) (string, *Error) {
	switch mode {
	case "":
		return ModeExact, nil
	case ModeExact, ModeANN:
		return mode, nil
	}
	return "", BadParam("mode must be %q or %q, got %q", ModeExact, ModeANN, mode)
}

// EF validates an explicitly supplied ann search breadth; zero means
// "server default" and is always accepted.
func (v Validator) EF(ef int) *Error {
	max := v.Limits.MaxEF
	if max == 0 {
		max = DefaultMaxEF
	}
	if ef < 0 || ef > max {
		return BadParam("ef must be in [0, %d]", max)
	}
	return nil
}

// Entity checks that a parsed EntityRef names a real user or item.
func (v Validator) Entity(ref EntityRef) *Error {
	switch ref.Kind {
	case KindUser:
		return v.User(ref.ID)
	case KindItem:
		return v.Item(ref.ID)
	}
	return BadParam("entity kind must be %q or %q, got %q", KindUser, KindItem, ref.Kind)
}

// TypeFilter validates the result-type filter of the query endpoints:
// empty means "same kind as the anchor decides" (resolved by the
// handler), otherwise the filter restricts results to one kind or
// explicitly allows both.
func (v Validator) TypeFilter(t string) *Error {
	switch t {
	case "", KindUser, KindItem, "any":
		return nil
	}
	return BadParam("type must be %q, %q, or \"any\", got %q", KindUser, KindItem, t)
}

// ResolveBatchMode resolves the scoring mode of a recommend:batch
// request. Modes, when present, must be uniform and agree with Mode —
// a heterogeneous batch cannot fan out to shards under one contract,
// so it is rejected with a 400 rather than silently defaulting.
func (v Validator) ResolveBatchMode(req *BatchRequest) (string, *Error) {
	mode, e := v.Mode(req.Mode)
	if e != nil {
		return "", e
	}
	if len(req.Modes) == 0 {
		return mode, nil
	}
	first, e := v.Mode(req.Modes[0])
	if e != nil {
		return "", e
	}
	for _, m := range req.Modes[1:] {
		got, e := v.Mode(m)
		if e != nil {
			return "", e
		}
		if got != first {
			return "", BadParam("mixed-mode batch: modes[] mixes %q and %q; split the batch per mode", first, got)
		}
	}
	if req.Mode != "" && first != mode {
		return "", BadParam("mixed-mode batch: mode=%q conflicts with modes[]=%q", mode, first)
	}
	return first, nil
}
