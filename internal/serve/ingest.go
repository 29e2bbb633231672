package serve

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/serve/api"
)

// Live ingestion: POST /v1/ingest accepts observed query events,
// commits them durably to the Merkle-chained ledger, and applies them
// to the CSR delta-overlay so /v1/explain and the graph metrics see
// them immediately. POST /v1/admin/compact folds the accumulated delta
// into a fresh frozen CSR and hot-swaps it into the dispatcher through
// the same generation path scorer reloads use.
//
// The mu serializes the whole Prepare → Append → Apply sequence, so
// ledger order is exactly application order and a crash-recovery
// replay (ledger.Open with the applier's OnBatch) rebuilds the same
// overlay bit for bit.

// maxIngestBody bounds the /v1/ingest request body.
const maxIngestBody = 1 << 20

type ingestState struct {
	mu  sync.Mutex
	led *ledger.Ledger
	app *ingest.Applier
}

// WithIngest enables live ingestion over an open ledger and its
// applier. The caller replays the ledger into the applier before
// serving (ledger.Open's OnBatch does this); the server only appends
// going forward.
func WithIngest(led *ledger.Ledger, app *ingest.Applier) Option {
	return func(s *Server) {
		if led != nil && app != nil {
			s.ingest = &ingestState{led: led, app: app}
		}
	}
}

// handleIngest is POST /v1/ingest: validate, commit to the ledger,
// apply to the overlay, acknowledge with the chain hash. The 200 is
// sent only after fsync — an acknowledged batch survives any crash.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	st := s.ingest
	r.Body = http.MaxBytesReader(w, r.Body, maxIngestBody)
	var req api.IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, r, &apiError{
				Code:    "bad_param",
				Message: fmt.Sprintf("request body exceeds %d bytes", maxIngestBody),
				Status:  http.StatusRequestEntityTooLarge,
			})
			return
		}
		s.writeError(w, r, badParam("invalid JSON body: %v", err))
		return
	}
	if e := s.validate.IngestSize(req.Events); e != nil {
		s.writeError(w, r, e)
		return
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	evs, e := st.app.Prepare(req.Events)
	if e != nil {
		s.writeError(w, r, e)
		return
	}
	// Stamp receive time before the append: the ledger is the source of
	// truth, so replay must read the same timestamps the live path saw.
	now := time.Now().Unix()
	for i := range evs {
		if evs[i].Unix == 0 {
			evs[i].Unix = now
		}
	}
	commit, err := st.led.Append(evs)
	if err != nil {
		s.writeError(w, r, &apiError{
			Code:    "ledger_unavailable",
			Message: fmt.Sprintf("event batch not committed: %v", err),
			Status:  http.StatusServiceUnavailable,
		})
		return
	}
	if err := st.app.Apply(evs); err != nil {
		// The batch is durable but the in-memory overlay diverged — a
		// bug, not an operational state. Surface it loudly; a restart
		// replays the ledger and converges.
		s.writeError(w, r, &apiError{
			Code:    "ingest_apply_failed",
			Message: fmt.Sprintf("batch %d committed but not applied: %v; restart to replay", commit.Index, err),
			Status:  http.StatusInternalServerError,
		})
		return
	}
	ist := st.app.Stats()
	writeJSON(w, http.StatusOK, api.IngestResponse{
		Batch:      commit.Index,
		Events:     len(evs),
		Chain:      hex.EncodeToString(commit.Chain[:]),
		Users:      ist.Users,
		Items:      ist.Items,
		DeltaEdges: st.app.Overlay().DeltaEdges(),
	})
}

// handleCompact is POST /v1/admin/compact: freeze the merged overlay
// view into a new immutable CSR and swap it into the dispatcher (path
// finders and graph gauges follow the new graph; score caches are
// invalidated through the same generation path scorer swaps use).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	st := s.ingest
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.app.Compact()
	s.disp.SetGraph(c)
	writeJSON(w, http.StatusOK, api.CompactResponse{
		Status:     "compacted",
		Entities:   c.NumEntities(),
		Edges:      c.NumEdges(),
		Generation: st.app.Overlay().Generation(),
	})
}

// ingestStats assembles the /v1/stats ingest block; nil when the
// server runs without a ledger.
func (s *Server) ingestStats() *api.IngestStats {
	if s.ingest == nil {
		return nil
	}
	ls := s.ingest.led.Stats()
	ist := s.ingest.app.Stats()
	ov := s.ingest.app.Overlay()
	return &api.IngestStats{
		Batches:       ls.Batches,
		Events:        ls.Events,
		Segments:      ls.Segments,
		LedgerBytes:   ls.ActiveBytes,
		DeltaEdges:    ov.DeltaEdges(),
		DeltaEntities: ov.DeltaEntities(),
		Generation:    ov.Generation(),
		Users:         ist.Users,
		Items:         ist.Items,
	}
}
