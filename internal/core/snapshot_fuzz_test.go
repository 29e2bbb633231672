package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/models/modeltest"
)

// smallSnapshot builds a tiny hand-rolled snapshot for format tests —
// no training required.
func smallSnapshot() *Snapshot {
	return &Snapshot{
		FacilityName: "ooi",
		Dim:          2,
		UserEnt:      []int{0, 1},
		ItemEnt:      []int{2, 3},
		FinalRows:    4,
		FinalCols:    2,
		FinalData:    []float64{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

func TestSaveFileLoadSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	s := smallSnapshot()
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	if got.FacilityName != s.FacilityName || got.FinalRows != s.FinalRows {
		t.Fatalf("round trip mangled snapshot: %+v", got)
	}
	for i, v := range s.FinalData {
		if got.FinalData[i] != v {
			t.Fatalf("FinalData[%d] = %v, want %v", i, got.FinalData[i], v)
		}
	}
}

// A raw gob stream written straight to disk (the pre-framing format)
// carries no magic or checksum, so LoadSnapshotFile must refuse it
// rather than decode unverified bytes.
func TestLoadSnapshotFileLegacyRawGob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.gob")
	var buf bytes.Buffer
	if err := smallSnapshot().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); !errors.Is(err, ckpt.ErrBadMagic) {
		t.Fatalf("LoadSnapshotFile(raw gob) = %v, want ckpt.ErrBadMagic", err)
	}
}

// A framed snapshot with a flipped payload byte must be rejected by
// the checksum, not decoded into garbage.
func TestLoadSnapshotFileDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := smallSnapshot().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); err == nil {
		t.Fatal("corrupted framed snapshot accepted")
	}
}

func TestLoadSnapshotTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := smallSnapshot().Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if _, err := LoadSnapshot(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncated snapshot (%d/%d bytes) accepted", n, len(full))
		}
	}
}

// FuzzLoadSnapshot asserts the hard satellite requirement: arbitrary
// bytes fed to LoadSnapshot return (nil, error) or a fully validated
// snapshot — never a panic. The seed corpus covers a valid snapshot,
// truncations of it, raw garbage, and shape-corrupted encodings.
func FuzzLoadSnapshot(f *testing.F) {
	var valid bytes.Buffer
	if err := smallSnapshot().Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte("not a gob"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	// Negative-shape snapshot whose rows*cols wraps to a plausible value.
	bad := smallSnapshot()
	bad.FinalRows, bad.FinalCols = -1, -8
	var badBuf bytes.Buffer
	if err := bad.Save(&badBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(badBuf.Bytes())

	// A real trained snapshot, so the fuzzer mutates production-shaped
	// input too.
	d := modeltest.TinyDataset(f)
	m := NewDefault()
	cfg := modeltest.QuickConfig()
	cfg.Epochs = 1
	if err := m.Train(context.Background(), d, cfg); err != nil {
		f.Fatal(err)
	}
	var trained bytes.Buffer
	if err := m.Snapshot(d.Name).Save(&trained); err != nil {
		f.Fatal(err)
	}
	f.Add(trained.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			if s != nil {
				t.Fatal("non-nil snapshot returned alongside error")
			}
			return
		}
		// Whatever decoded must be safe to score with.
		if int64(s.FinalRows)*int64(s.FinalCols) != int64(len(s.FinalData)) {
			t.Fatalf("accepted inconsistent shape %dx%d data %d",
				s.FinalRows, s.FinalCols, len(s.FinalData))
		}
		for _, e := range append(append([]int{}, s.UserEnt...), s.ItemEnt...) {
			if e < 0 || e >= s.FinalRows {
				t.Fatalf("accepted out-of-range entity %d", e)
			}
		}
	})
}
