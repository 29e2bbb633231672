package serve

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
)

// TestMetricLabelCardinalityBounded is the cross-subsystem cardinality
// audit: after a federated, sharded, ANN-enabled server takes diverse
// traffic — valid requests in both scoring modes, facility filters,
// bad parameters, and a flood of unique unregistered paths — every
// label value on every registered family must still come from a fixed,
// enumerable set, and the child count of every family must not have
// grown beyond its primed bound. Request content must never mint new
// time series.
func TestMetricLabelCardinalityBounded(t *testing.T) {
	const shards = 2
	s, fed := federatedServer(t, WithShards(shards), WithANN(shard.ANNConfig{}))

	drive := func(wave int) {
		for u := 0; u < 6; u++ {
			get(t, s, fmt.Sprintf("/v1/recommend?user=%d&k=3", u))
		}
		get(t, s, "/v1/recommend?user=1&k=3&mode=exact")
		get(t, s, "/v1/recommend?user=1&k=3&mode=ann")
		get(t, s, fmt.Sprintf("/v1/recommend?user=2&k=3&facility=%s", fed.Parts[0].Name))
		get(t, s, "/v1/recommend?user=2&k=3&facility=no-such-facility")
		get(t, s, "/v1/query:nearest?entity=item:1&k=3")
		get(t, s, "/v1/query:nearest?entity=item:1&k=3&mode=exact")
		get(t, s, "/v1/query:analogy?a=item:1&b=item:2&c=item:3&k=3")
		get(t, s, "/v1/recommend?user=notanumber&k=3")
		get(t, s, "/v1/similar?item=999999&k=3")
		do(t, s, "POST", "/v1/recommend:batch", `{"users":[0,1,2],"k":3}`)
		// Unique attacker-controlled paths: each must collapse into the
		// "other" endpoint label, never a new child.
		for i := 0; i < 25; i++ {
			get(t, s, fmt.Sprintf("/v1/wave%d/evil%d", wave, i))
		}
		get(t, s, "/v1/stats")
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if rr.Code != 200 {
			t.Fatalf("/metrics status %d", rr.Code)
		}
	}
	drive(0)

	// Fixed allowed sets, derived from configuration only.
	endpoints := map[string]bool{obs.OtherLabel: true}
	for ep := range s.routes {
		endpoints[ep] = true
	}
	classes := map[string]bool{
		"1xx": true, "2xx": true, "3xx": true, "4xx": true, "5xx": true,
		obs.OtherLabel: true,
	}
	shardIDs := map[string]bool{}
	for i := 0; i < shards; i++ {
		shardIDs[strconv.Itoa(i)] = true
	}
	modes := map[string]bool{"exact": true, "ann": true}
	sloNames := map[string]bool{}
	for _, cfg := range s.slos {
		sloNames[cfg.Name] = true
	}

	audit := func() map[string]int {
		children := map[string]int{}
		s.metrics.reg.EachFamily(func(f obs.FamilyInfo) {
			children[f.Name] = len(f.Children)
			for _, child := range f.Children {
				for i, label := range f.Labels {
					v := child[i]
					var ok bool
					switch label {
					case "endpoint":
						ok = endpoints[v]
					case "class":
						ok = classes[v]
					case "shard":
						ok = shardIDs[v]
					case "mode":
						ok = modes[v]
					case "slo":
						ok = sloNames[v]
					default:
						t.Errorf("%s: unexpected label key %q (every label must have an audited bound)", f.Name, label)
						continue
					}
					if !ok {
						t.Errorf("%s: label %s=%q outside its fixed set", f.Name, label, v)
					}
				}
			}
		})
		return children
	}

	first := audit()
	if t.Failed() {
		t.FailNow()
	}
	// A second hostile wave with fresh unique paths must not create a
	// single new child anywhere: cardinality is fixed at prime time.
	drive(1)
	second := audit()
	for name, n := range second {
		if n != first[name] {
			t.Errorf("family %s grew from %d to %d children under hostile traffic", name, first[name], n)
		}
	}
	for name := range first {
		if _, ok := second[name]; !ok {
			t.Errorf("family %s disappeared between audits", name)
		}
	}
}
