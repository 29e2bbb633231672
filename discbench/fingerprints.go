package main

import (
	_ "embed"
	"encoding/json"
	"runtime"
	"strconv"
)

// fingerprints.json records, per GOARCH, workload and seed, the
// fingerprints of the generated op stream and of the trained model at
// the commit that defined the benchmark. A run whose seed is recorded
// must reproduce them: if a change to the trace generator, the dataset
// or training shifts the inputs, the run fails loudly instead of
// silently moving the baseline. Float results are only pinned per
// architecture, since fused multiply-add differs between them.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

type fingerprint struct {
	Stream string `json:"stream"`
	Model  string `json:"model"`
}

func recordedFingerprint(workload string, seed int64) (fingerprint, bool) {
	var all map[string]map[string]map[string]fingerprint
	if err := json.Unmarshal(fingerprintsJSON, &all); err != nil {
		return fingerprint{}, false
	}
	fp, ok := all[runtime.GOARCH][workload][strconv.FormatInt(seed, 10)]
	return fp, ok
}
