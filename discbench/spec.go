package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json is the benchmark's fixed configuration: per-workload
// fixtures, offered rates and op mixes, the generator-validity and SLO
// limits of the measured windows, and the map from every per-layer metric to
// the end-to-end metric it should move. It is compiled in so a run can
// never pick up a different file than the one committed with it.
//
//go:embed spec.json
var specJSON []byte

// Spec is the decoded spec.json.
type Spec struct {
	// Conns is the number of keep-alive connections, and so the most
	// requests in flight, the generator uses.
	Conns int `json:"conns"`
	// SLOP99MS is the service-time p99 limit a saturation window must
	// meet to count towards capacity_rps.
	SLOP99MS float64 `json:"slo_p99_ms"`
	// WindowLagP99MaxMS marks a fixed-rate window invalid when the
	// generator's send lateness p99 exceeds it. The windows run far
	// below capacity, so a lag tail above the timer granularity means
	// the whole process stalled.
	WindowLagP99MaxMS float64 `json:"window_lag_p99_max_ms"`
	// SetupRepeats is how many times a plain run sets up; setup_s is
	// their median.
	SetupRepeats int `json:"setup_repeats"`
	// K is the result size of every ranking request.
	K int `json:"k"`
	// RecallGate is the minimum mean recall of ann answers against the
	// exact reference.
	RecallGate float64 `json:"recall_gate"`

	Workloads map[string]*WorkloadSpec `json:"workloads"`
	Layers    []LayerSpec              `json:"layers"`
}

// WorkloadSpec fixes one workload's fixture, topology and traffic.
type WorkloadSpec struct {
	Facility    string         `json:"facility"` // "ooi" or "gage"
	Users       int            `json:"users"`
	Orgs        int            `json:"orgs"`
	MeanQueries int            `json:"mean_queries"`
	Epochs      int            `json:"epochs"`
	Dim         int            `json:"dim"`
	CacheSize   int            `json:"cache_size"`
	Backends    int            `json:"backends"` // 0: one serve.Server; n: router over n backends
	Ledger      bool           `json:"ledger"`
	FixedRPS    float64        `json:"fixed_rps"`
	Mix         map[string]int `json:"mix"`
	BatchSize   int            `json:"batch_size"`
	IngestSize  int            `json:"ingest_size"`
	// CompactEvery inserts POST /v1/admin/compact after every this many
	// stream ops (0: never).
	CompactEvery int `json:"compact_every"`
}

// LayerSpec records what one per-layer metric should move.
type LayerSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves"`   // end-to-end metrics; empty for validity gates
	On     []string `json:"on"`      // workloads where it should move them
	FlatOn []string `json:"flat_on"` // workloads where it is predicted flat
}

func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("decode spec.json: %w", err)
	}
	for name, w := range s.Workloads {
		for kind := range w.Mix {
			if _, ok := kindByName(kind); !ok {
				return nil, fmt.Errorf("workload %s: unknown op %q in mix", name, kind)
			}
		}
	}
	return &s, nil
}
