package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/types"
)

// testRecord builds a record whose certificate actually verifies: a real
// 2f+1 vote quorum over a snapshot-consistent checkpoint, plus a committed
// suffix.
func testRecord(t testing.TB) *Record {
	t.Helper()
	tr := newTestTracker(t, 1)
	snapshot := "#2\nk v\n"
	c := Checkpoint{Slot: 8, StateDigest: Digest(snapshot), LogDigest: 77}
	tr.RecordLocal(c, snapshot)
	for _, v := range []types.ProcessID{2, 3} {
		tr.NoteVote(v, vote(v, c))
	}
	p, ok := tr.CertPayload(true)
	if !ok {
		t.Fatal("no certified payload to persist")
	}
	return &Record{
		Cert: *p,
		Suffix: []LogEntry{
			{Slot: 8, Proposer: 1, Command: "set a b"},
			{Slot: 9, Proposer: 2, Command: "\x00noop"},
		},
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewStore(filepath.Join(t.TempDir(), "replica.ckpt"))
	rec := testRecord(t)
	if err := s.Save(rec); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cert.Slot != rec.Cert.Slot || got.Cert.Snapshot != rec.Cert.Snapshot {
		t.Fatalf("certificate mangled: %+v", got.Cert)
	}
	if len(got.Cert.Voters) != len(rec.Cert.Voters) {
		t.Fatalf("voters mangled: %v", got.Cert.Voters)
	}
	if len(got.Suffix) != 2 || got.Suffix[0] != rec.Suffix[0] || got.Suffix[1] != rec.Suffix[1] {
		t.Fatalf("suffix mangled: %+v", got.Suffix)
	}
	// The loaded certificate still passes the state-transfer verification
	// gate — the property the restore path depends on.
	if _, ok := newTestTracker(t, 2).VerifyCertPayload(&got.Cert); !ok {
		t.Fatal("round-tripped certificate fails verification")
	}
}

func TestStoreLoadMissing(t *testing.T) {
	s := NewStore(filepath.Join(t.TempDir(), "absent.ckpt"))
	if _, err := s.Load(); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("missing file: %v, want ErrNoRecord", err)
	}
}

func TestStoreSaveRequiresSnapshot(t *testing.T) {
	s := NewStore(filepath.Join(t.TempDir(), "replica.ckpt"))
	rec := testRecord(t)
	rec.Cert.Snapshot = ""
	if err := s.Save(rec); err == nil {
		t.Fatal("snapshotless record saved")
	}
	if err := s.Save(nil); err == nil {
		t.Fatal("nil record saved")
	}
}

// TestStoreRejectsTornWrites is the kill -9 battery: every prefix
// truncation of a valid record file — the torn states an interrupted
// non-atomic write could leave, were the rename not atomic — must be
// rejected, never half-loaded.
func TestStoreRejectsTornWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.ckpt")
	s := NewStore(path)
	if err := s.Save(testRecord(t)); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(valid); n++ {
		if err := os.WriteFile(path, valid[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(); err == nil {
			t.Fatalf("torn record of %d/%d bytes loaded", n, len(valid))
		} else if n > 0 && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn record of %d bytes: %v, want ErrCorrupt", n, err)
		}
	}
	// Trailing garbage after a valid record is equally rejected (the
	// checksum covers exactly the body; extra bytes change it).
	if err := os.WriteFile(path, append(append([]byte{}, valid...), 0xEE), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record with trailing garbage: %v, want ErrCorrupt", err)
	}
}

// TestStoreRejectsBitFlips: single-bit corruption anywhere in the file —
// header, checksum, certificate, snapshot, suffix — fails the load.
func TestStoreRejectsBitFlips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.ckpt")
	s := NewStore(path)
	if err := s.Save(testRecord(t)); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(valid); i++ {
		flipped := append([]byte{}, valid...)
		flipped[i] ^= 0x01
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: %v, want ErrCorrupt", i, err)
		}
	}
}

// TestStoreLeftoverTempFile: a crash between the temp write and the rename
// leaves a .tmp beside the record; Load reads the (old, intact) record and
// the next Save replaces both.
func TestStoreLeftoverTempFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.ckpt")
	s := NewStore(path)
	rec := testRecord(t)
	if err := s.Save(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("torn half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cert.Slot != rec.Cert.Slot {
		t.Fatalf("leftover temp file corrupted the load: %+v", got.Cert)
	}
	if err := s.Save(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSaveIsAtomicReplacement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.ckpt")
	s := NewStore(path)
	rec := testRecord(t)
	if err := s.Save(rec); err != nil {
		t.Fatal(err)
	}
	// A second save at a later cut fully replaces the record.
	tr := newTestTracker(t, 1)
	snapshot2 := "#4\nk v2\n"
	c2 := Checkpoint{Slot: 16, StateDigest: Digest(snapshot2), LogDigest: 99}
	tr.RecordLocal(c2, snapshot2)
	for _, v := range []types.ProcessID{2, 3} {
		tr.NoteVote(v, vote(v, c2))
	}
	p2, ok := tr.CertPayload(true)
	if !ok {
		t.Fatal("no second payload")
	}
	if err := s.Save(&Record{Cert: *p2}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cert.Slot != 16 || len(got.Suffix) != 0 {
		t.Fatalf("replacement incomplete: slot %d, %d suffix entries", got.Cert.Slot, len(got.Suffix))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestWriteFileAtomicFailureLeavesNoTemp: a write whose rename fails (the
// target is a non-empty directory) returns the error, leaves the target as it
// was and removes its temp file.
func TestWriteFileAtomicFailureLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "target")
	if err := os.MkdirAll(filepath.Join(path, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	if _, err := os.Stat(filepath.Join(path, "keep")); err != nil {
		t.Fatalf("target disturbed: %v", err)
	}
}

// FuzzStoreRecord: a record body that passes the checksum is still parsed
// as hostile bytes. The loader must never panic, and any body it accepts
// must re-encode through appendRecord and decode back to an equal record.
func FuzzStoreRecord(f *testing.F) {
	valid, err := appendRecord(nil, testRecord(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3]) // the last suffix command cut short

	f.Fuzz(func(t *testing.T, body []byte) {
		rec, err := readRecord(body)
		if err != nil {
			return
		}
		re, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		back, err := readRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record failed to load: %v", err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", back, rec)
		}
	})
}
