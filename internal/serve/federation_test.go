package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/facility"
	"repro/internal/models"
	"repro/internal/serve/api"
)

// One trained federated model shared across the package (training
// dominates); every test gets a fresh Server so metrics start at zero.
var fedModelOnce struct {
	sync.Once
	fed *dataset.Federated
	m   *core.Model
	err error
}

func federatedServer(t testing.TB, opts ...Option) (*Server, *dataset.Federated) {
	t.Helper()
	fedModelOnce.Do(func() {
		ooi := facility.BuiltinOOI()
		for i := range ooi.Synthesis.Grid.Plan {
			ooi.Synthesis.Grid.Plan[i].Sites = 1 + i%2
		}
		ooi.Affinity.NumUsers = 40
		ooi.Affinity.NumOrgs = 6
		ooi.Affinity.NumCities = 6
		ooi.Affinity.MeanQueries = 16
		gage := facility.BuiltinGAGE()
		gage.Synthesis.Stations.Stations = 60
		gage.Synthesis.Stations.Cities = 10
		gage.Affinity.NumUsers = 40
		gage.Affinity.NumOrgs = 6
		gage.Affinity.MeanQueries = 12
		fed, err := dataset.BuildFederated([]*facility.Schema{ooi, gage}, dataset.AllSources(), 5)
		if err != nil {
			fedModelOnce.err = err
			return
		}
		m := core.NewDefault()
		tc := models.DefaultTrainConfig()
		tc.Epochs = 3
		tc.EmbedDim = 16
		if err := m.Train(context.Background(), fed.Dataset, tc); err != nil {
			fedModelOnce.err = err
			return
		}
		fedModelOnce.fed, fedModelOnce.m = fed, m
	})
	if fedModelOnce.err != nil {
		t.Fatalf("federated fixture: %v", fedModelOnce.err)
	}
	opts = append([]Option{WithFederation(fedModelOnce.fed)}, opts...)
	return New(fedModelOnce.fed.Dataset, fedModelOnce.m, opts...), fedModelOnce.fed
}

// items extracts the item IDs of a ranked response list.
func responseItems(t *testing.T, body map[string]any, field string) []int {
	t.Helper()
	raw, ok := body[field].([]any)
	if !ok {
		t.Fatalf("response has no %q list: %v", field, body)
	}
	out := make([]int, len(raw))
	for i, r := range raw {
		rec := r.(map[string]any)
		out[i] = int(rec["item"].(float64))
	}
	return out
}

// TestFederatedRecommendFacilityFilter drives /v1/recommend with a
// facility filter over both member facilities and both scoring modes:
// every returned item must fall inside the named facility's item
// window, and the response echoes the filter.
func TestFederatedRecommendFacilityFilter(t *testing.T) {
	s, fed := federatedServer(t)
	for pi := range fed.Parts {
		name := fed.Parts[pi].Name
		itemLo, itemHi := fed.ItemRange(pi)
		userLo, _ := fed.UserRange(pi)
		for _, mode := range []string{"exact", "ann"} {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				path := fmt.Sprintf("/v1/recommend?user=%d&k=8&facility=%s&mode=%s", userLo, name, mode)
				rr, body := get(t, s, path)
				if rr.Code != http.StatusOK {
					t.Fatalf("status %d: %v", rr.Code, body)
				}
				if got := body["facility"]; got != name {
					t.Fatalf("facility echo = %v, want %s", got, name)
				}
				items := responseItems(t, body, "recommendations")
				if len(items) == 0 {
					t.Fatal("filtered recommend returned no items")
				}
				for _, it := range items {
					if it < itemLo || it >= itemHi {
						t.Fatalf("item %d outside %s window [%d, %d)", it, name, itemLo, itemHi)
					}
				}
			})
		}
	}
}

// TestFederatedRecommendUnfiltered confirms the zero-value query is
// unrestricted: with enough k, a user's ranking spans both facilities'
// item windows (the cross-facility discovery the federation exists
// for), and no facility field is echoed.
func TestFederatedRecommendUnfiltered(t *testing.T) {
	s, fed := federatedServer(t, WithLimits(api.Limits{MaxK: 1 << 16}))
	rr, body := get(t, s, fmt.Sprintf("/v1/recommend?user=0&k=%d", fed.NumItems))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rr.Code, body)
	}
	if _, present := body["facility"]; present {
		t.Fatalf("unfiltered response echoes a facility: %v", body["facility"])
	}
	_, ooiHi := fed.ItemRange(0)
	sawOOI, sawGAGE := false, false
	for _, it := range responseItems(t, body, "recommendations") {
		if it < ooiHi {
			sawOOI = true
		} else {
			sawGAGE = true
		}
	}
	if !sawOOI || !sawGAGE {
		t.Fatalf("full ranking should span both facilities (ooi=%v gage=%v)", sawOOI, sawGAGE)
	}
}

// TestFacilityFilterErrors covers the validation surface: an unknown
// facility is a 404 on a federated server, and any facility filter is
// a 400 on a single-facility server.
func TestFacilityFilterErrors(t *testing.T) {
	s, _ := federatedServer(t)
	rr, body := get(t, s, "/v1/recommend?user=0&facility=SEISNET")
	if code, _ := envelopeCode(t, body); rr.Code != http.StatusNotFound || code != "not_found" {
		t.Fatalf("unknown facility: status %d code %v", rr.Code, body)
	}
	rr, body = get(t, s, "/v1/query:nearest?entity=item:0&facility=SEISNET")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown facility on query:nearest: status %d %v", rr.Code, body)
	}

	single, _ := testServer(t)
	rr, body = do(t, single, http.MethodGet, "/v1/recommend?user=0&facility=OOI", "")
	if code, _ := envelopeCode(t, body); rr.Code != http.StatusBadRequest || code != "bad_param" {
		t.Fatalf("facility filter on single-facility server: status %d %v", rr.Code, body)
	}
}

// TestFederatedQueryNearestFacilityFilter checks the semantic-query
// path: neighbors of an OOI anchor filtered to GAGE are all GAGE
// entities, for item, user, and mixed result kinds, in both modes.
func TestFederatedQueryNearestFacilityFilter(t *testing.T) {
	s, fed := federatedServer(t)
	itemLo, itemHi := fed.ItemRange(1)
	userLo, userHi := fed.UserRange(1)
	name := fed.Parts[1].Name
	for _, tc := range []struct{ typ, mode string }{
		{"item", "ann"}, {"item", "exact"}, {"user", "exact"}, {"any", "exact"},
	} {
		t.Run(tc.typ+"/"+tc.mode, func(t *testing.T) {
			path := fmt.Sprintf("/v1/query:nearest?entity=item:0&k=6&type=%s&facility=%s&mode=%s",
				tc.typ, name, tc.mode)
			rr, body := get(t, s, path)
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d: %v", rr.Code, body)
			}
			if got := body["facility"]; got != name {
				t.Fatalf("facility echo = %v, want %s", got, name)
			}
			raw, _ := body["neighbors"].([]any)
			if len(raw) == 0 {
				t.Fatal("filtered query returned no neighbors")
			}
			for _, r := range raw {
				n := r.(map[string]any)
				id := int(n["id"].(float64))
				switch n["kind"] {
				case "item":
					if id < itemLo || id >= itemHi {
						t.Fatalf("item %d outside %s window [%d, %d)", id, name, itemLo, itemHi)
					}
				case "user":
					if id < userLo || id >= userHi {
						t.Fatalf("user %d outside %s window [%d, %d)", id, name, userLo, userHi)
					}
				}
			}
		})
	}
}

// TestFederatedStatsFacilities checks the per-facility /v1/stats
// block: one entry per member facility, in part order, with windows
// that tile the merged entity space.
func TestFederatedStatsFacilities(t *testing.T) {
	s, fed := federatedServer(t)
	rr, body := get(t, s, "/v1/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	raw, ok := body["facilities"].([]any)
	if !ok || len(raw) != len(fed.Parts) {
		t.Fatalf("facilities block = %v, want %d entries", body["facilities"], len(fed.Parts))
	}
	users, items := 0, 0
	for i, r := range raw {
		fb := r.(map[string]any)
		if fb["name"] != fed.Parts[i].Name {
			t.Fatalf("facilities[%d].name = %v, want %s", i, fb["name"], fed.Parts[i].Name)
		}
		users += int(fb["users"].(float64))
		items += int(fb["items"].(float64))
	}
	if users != fed.NumUsers || items != fed.NumItems {
		t.Fatalf("facility windows tile %d users / %d items, dataset has %d / %d",
			users, items, fed.NumUsers, fed.NumItems)
	}

	// Single-facility stats must not grow the block.
	single, _ := testServer(t)
	_, body = get(t, single, "/v1/stats")
	if _, present := body["facilities"]; present {
		t.Fatal("single-facility /v1/stats grew a facilities block")
	}
}
