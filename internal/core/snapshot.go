package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Snapshot is the serializable inference state of a trained CKAT: the
// final propagated representations, the user/item entity mappings, and
// the frozen CKG in CSR form. It is everything a serving process needs
// to score users, rank similar items, and walk explanation paths —
// cmd/serve boots from it without re-deriving adjacency.
//
// The CSR fields are optional for backward compatibility: snapshots
// written before the graph core decode with them nil, and CSR()
// reports that the graph is absent.
type Snapshot struct {
	FacilityName string
	Dim          int
	UserEnt      []int
	ItemEnt      []int
	FinalRows    int
	FinalCols    int
	FinalData    []float64

	// Frozen CKG (DESIGN.md §9). CSROffsets has NumEntities+1 entries;
	// CSRRels/CSRTails are the edge arrays sorted by (head, rel, tail).
	CSRRelations int
	CSROffsets   []int
	CSRRels      []int
	CSRTails     []int
}

// Snapshot extracts the inference state. Only valid after Train.
func (m *Model) Snapshot(facility string) *Snapshot {
	if m.final == nil {
		panic("core: Snapshot before Train")
	}
	s := &Snapshot{
		FacilityName: facility,
		Dim:          m.dim,
		UserEnt:      m.userEnt,
		ItemEnt:      m.itemEnt,
		FinalRows:    m.final.Rows,
		FinalCols:    m.final.Cols,
		FinalData:    m.final.Data,
	}
	if m.csr != nil {
		s.CSRRelations = m.csr.NumRelations()
		s.CSROffsets = m.csr.Offsets()
		s.CSRRels = m.csr.Rels()
		s.CSRTails = m.csr.Tails()
	}
	return s
}

// CSR reconstructs the frozen CKG persisted in the snapshot, running
// the full graph.FromParts invariant validation (a corrupt or
// hand-edited snapshot yields an error, never a panic downstream). It
// returns (nil, nil) for legacy snapshots written before the graph
// core, which carried no graph.
func (s *Snapshot) CSR() (*graph.CSR, error) {
	if s.CSROffsets == nil {
		return nil, nil
	}
	c, err := graph.FromParts(len(s.CSROffsets)-1, s.CSRRelations,
		s.CSROffsets, s.CSRRels, s.CSRTails)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot graph: %w", err)
	}
	return c, nil
}

// Save writes the snapshot with encoding/gob.
func (s *Snapshot) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(s)
}

// LoadSnapshot reads a snapshot written by Save and validates its
// internal consistency. Truncated or garbage input yields a
// descriptive error, never a panic: gob's occasional decode panics on
// hostile input are recovered, and every field combination that could
// drive an out-of-bounds index or overflowing allocation downstream is
// rejected here.
func LoadSnapshot(r io.Reader) (s *Snapshot, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("core: decode snapshot: malformed input: %v", p)
		}
	}()
	s = new(Snapshot)
	if err := gob.NewDecoder(r).Decode(s); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if s.Dim < 0 || s.FinalRows < 0 || s.FinalCols < 0 {
		return nil, fmt.Errorf("core: snapshot has negative dims (%d, %dx%d)",
			s.Dim, s.FinalRows, s.FinalCols)
	}
	// Multiply in int64 so crafted row/col pairs can't wrap int and
	// sneak past the shape check on 32-bit platforms.
	if int64(s.FinalRows)*int64(s.FinalCols) != int64(len(s.FinalData)) {
		return nil, fmt.Errorf("core: snapshot shape %dx%d != data %d",
			s.FinalRows, s.FinalCols, len(s.FinalData))
	}
	for _, e := range append(append([]int{}, s.UserEnt...), s.ItemEnt...) {
		if e < 0 || e >= s.FinalRows {
			return nil, fmt.Errorf("core: snapshot entity %d out of range", e)
		}
	}
	// The persisted graph (if any) must satisfy the CSR invariants;
	// reject corruption at load time rather than at first query.
	if s.CSROffsets != nil {
		if _, err := s.CSR(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SaveFile persists the snapshot to path atomically using the ckpt
// framed format (magic + version + checksum): the bytes are written to
// a temp file, fsynced, and renamed into place, so a crash mid-write
// can never leave a half-written snapshot at path.
func (s *Snapshot) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return err
	}
	return ckpt.WriteFile(path, buf.Bytes())
}

// LoadSnapshotFile reads a snapshot written by SaveFile, verifying the
// ckpt framing's checksum before decoding. A file without the framing
// (such as a raw gob stream from Save) fails with an error wrapping
// ckpt.ErrBadMagic.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	payload, err := ckpt.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("core: snapshot %s: %w", path, err)
	}
	return LoadSnapshot(bytes.NewReader(payload))
}

// Scorer turns the snapshot into an eval.Scorer usable for serving.
func (s *Snapshot) Scorer() *SnapshotScorer {
	return &SnapshotScorer{
		final:   tensor.NewFromSlice(s.FinalRows, s.FinalCols, s.FinalData),
		userEnt: s.UserEnt,
		itemEnt: s.ItemEnt,
	}
}

// SnapshotScorer scores users against the catalog from a loaded
// snapshot. Safe for concurrent use (read-only state).
type SnapshotScorer struct {
	final   *tensor.Dense
	userEnt []int
	itemEnt []int
}

// ScoreItems implements eval.Scorer.
func (s *SnapshotScorer) ScoreItems(user int, out []float64) {
	u := s.final.Row(s.userEnt[user])
	for i := range s.itemEnt {
		v := s.final.Row(s.itemEnt[i])
		var sum float64
		for j := range u {
			sum += u[j] * v[j]
		}
		out[i] = sum
	}
}

// NumItems implements eval.Scorer.
func (s *SnapshotScorer) NumItems() int { return len(s.itemEnt) }

// NumUsers returns the number of users in the snapshot.
func (s *SnapshotScorer) NumUsers() int { return len(s.userEnt) }

// UserVector implements eval.VectorScorer: the final propagated
// representation row for user u. The slice aliases snapshot state.
func (s *SnapshotScorer) UserVector(u int) []float64 { return s.final.Row(s.userEnt[u]) }

// ItemVector implements eval.VectorScorer: the final propagated
// representation row for item i. The slice aliases snapshot state.
func (s *SnapshotScorer) ItemVector(i int) []float64 { return s.final.Row(s.itemEnt[i]) }

// Dim implements eval.VectorScorer: the width of the final
// representation rows (all layers concatenated).
func (s *SnapshotScorer) Dim() int { return s.final.Cols }
