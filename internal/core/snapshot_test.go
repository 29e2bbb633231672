package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/models/modeltest"
)

func TestSnapshotRoundTrip(t *testing.T) {
	d := modeltest.TinyDataset(t)
	m := NewDefault()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 3
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Snapshot(d.Name).Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.FacilityName != d.Name {
		t.Fatalf("facility = %q", snap.FacilityName)
	}
	sc := snap.Scorer()
	if sc.NumItems() != d.NumItems || sc.NumUsers() != d.NumUsers {
		t.Fatal("snapshot scorer dimensions wrong")
	}
	// The loaded scorer must reproduce the live model's scores exactly.
	a := make([]float64, d.NumItems)
	b := make([]float64, d.NumItems)
	for _, u := range []int{0, 3, 7} {
		m.ScoreItems(u, a)
		sc.ScoreItems(u, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("user %d item %d: live %v vs snapshot %v", u, i, a[i], b[i])
			}
		}
	}
	// And therefore identical evaluation metrics.
	if eval.Evaluate(d, m, 20) != eval.Evaluate(d, sc, 20) {
		t.Fatal("snapshot evaluation differs from live model")
	}
}

// The frozen CKG must survive the snapshot round trip bit-for-bit so
// cmd/serve can boot from it instead of re-freezing the dataset graph.
func TestSnapshotCSRRoundTrip(t *testing.T) {
	d := modeltest.TinyDataset(t)
	m := NewDefault()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := dir + "/snap.ckpt"
	if err := m.Snapshot(d.Name).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := snap.CSR()
	if err != nil {
		t.Fatal(err)
	}
	if c == nil {
		t.Fatal("trained snapshot lost its CSR")
	}
	want := d.CSR()
	if c.NumEntities() != want.NumEntities() || c.NumRelations() != want.NumRelations() ||
		c.NumEdges() != want.NumEdges() {
		t.Fatalf("restored CSR shape (%d ents, %d rels, %d edges) != frozen (%d, %d, %d)",
			c.NumEntities(), c.NumRelations(), c.NumEdges(),
			want.NumEntities(), want.NumRelations(), want.NumEdges())
	}
	for e := 0; e < c.NumEdges(); e++ {
		if c.Heads()[e] != want.Heads()[e] || c.Rels()[e] != want.Rels()[e] ||
			c.Tails()[e] != want.Tails()[e] {
			t.Fatalf("edge %d differs after round trip", e)
		}
	}
}

// Legacy snapshots (written before the graph core) have nil CSR
// fields; CSR() must report graph-absent, not error.
func TestSnapshotCSRAbsentOnLegacy(t *testing.T) {
	s := &Snapshot{FinalRows: 0, FinalCols: 0}
	c, err := s.CSR()
	if err != nil || c != nil {
		t.Fatalf("legacy snapshot CSR = (%v, %v), want (nil, nil)", c, err)
	}
}

// A snapshot whose persisted graph violates the CSR invariants must be
// rejected at load time, never panic at first query.
func TestLoadSnapshotRejectsCorruptCSR(t *testing.T) {
	d := modeltest.TinyDataset(t)
	m := NewDefault()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}

	corrupt := []func(s *Snapshot){
		func(s *Snapshot) { s.CSRRels[0] = s.CSRRelations },               // relation out of range
		func(s *Snapshot) { s.CSRTails[0] = -1 },                          // tail out of range
		func(s *Snapshot) { s.CSROffsets[1] = s.CSROffsets[0] - 1 },       // non-monotone offsets
		func(s *Snapshot) { s.CSROffsets[0] = 1 },                         // offsets must start at 0
		func(s *Snapshot) { s.CSRTails = s.CSRTails[:len(s.CSRTails)-1] }, // edge arrays disagree
	}
	for i, mutate := range corrupt {
		s := m.Snapshot(d.Name)
		// Snapshot aliases the model's live CSR arrays; copy before
		// corrupting so one case can't leak into the next.
		s.CSROffsets = append([]int(nil), s.CSROffsets...)
		s.CSRRels = append([]int(nil), s.CSRRels...)
		s.CSRTails = append([]int(nil), s.CSRTails...)
		mutate(s)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(&buf); err == nil {
			t.Fatalf("corruption %d accepted", i)
		}
	}
}

func TestLoadSnapshotRejectsCorruptShape(t *testing.T) {
	d := modeltest.TinyDataset(t)
	m := NewDefault()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot(d.Name)
	s.FinalRows++ // corrupt
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&buf); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadSnapshot(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSnapshotBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDefault().Snapshot("x")
}
