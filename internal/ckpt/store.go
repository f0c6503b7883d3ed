package ckpt

// The durable snapshot store: crash-safe persistence of one replica's
// latest certified checkpoint, so a whole-cluster power cycle recovers from
// disk instead of stalling forever (every replica's in-flight messages are
// gone, and with nobody ahead there is no peer to transfer from).
//
// One record holds {certificate+snapshot, committed log suffix}. The
// certificate is the wire-encoded CkptCertPayload with the snapshot
// attached — exactly the bytes a state-transfer response would carry, so a
// load is verified by the same VerifyCertPayload gate as a network transfer
// and a corrupted file can never install more than a hostile responder
// could (nothing). The suffix records the entries the replica had committed
// at or above the cut when it saved; a restored replica resumes *at the
// cut* (the suffix slots re-commit through ordinary consensus, which under
// heterogeneous reboots is the only live resumption point) and uses the
// suffix as a cross-restart divergence detector.
//
// Write path: encode body, prepend magic/version/SHA-256 header, write to a
// temp file, fsync, rename over the record. A kill -9 at any instant leaves
// either the old record (rename not reached) or the new one (rename
// atomic); a torn temp file is never looked at. Load path: magic, version,
// checksum, then a strict decode that rejects truncation and trailing
// bytes; any failure returns ErrCorrupt and the replica starts empty,
// falling back to network state transfer.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/types"
	"repro/internal/wire"
)

// Store errors.
var (
	// ErrNoRecord reports a missing record file (a fresh deployment, not a
	// failure).
	ErrNoRecord = errors.New("ckpt: no durable record")
	// ErrCorrupt reports a record that failed the checksum or the strict
	// decode — a torn write, bit rot, or tampering. Callers fall back to
	// network state transfer.
	ErrCorrupt = errors.New("ckpt: durable record corrupt")
)

const (
	// storeVersion 2 added the per-slot batch Index to suffix entries; a
	// version-1 record is rejected at load like any other unreadable record,
	// so a replica upgraded across the format change boots empty and catches
	// up by network state transfer instead of misreading old bytes.
	storeVersion = 2
	// storeHeaderLen is magic (4) + version (1) + SHA-256 of the body (32).
	storeHeaderLen = 4 + 1 + sha256.Size
	// maxSuffixEntries bounds the decoded suffix before any allocation, like
	// every other hostile-length guard in the wire codec.
	maxSuffixEntries = 1 << 20
	// maxEntryField bounds a suffix entry's slot, index and proposer: 2⁴⁰,
	// or the largest int on a 32-bit host.
	maxEntryField = min(1<<40, math.MaxInt)
)

var storeMagic = [4]byte{'R', 'C', 'K', 'P'}

// LogEntry mirrors one committed log entry in a durable record. (It is the
// smr layer's Entry shape; the checkpoint package sits below smr and keeps
// its own copy of the triple.)
type LogEntry struct {
	Slot int
	// Index is the entry's position within its slot's batch (0 for the
	// first or only entry; batched proposals commit several entries per slot).
	Index    int
	Proposer types.ProcessID
	Command  string
}

// Record is what one replica persists: its latest certificate with the
// snapshot at the cut, plus the log suffix it had committed at save time.
type Record struct {
	Cert   types.CkptCertPayload
	Suffix []LogEntry
}

// Store reads and writes one replica's durable checkpoint record at a fixed
// path.
type Store struct {
	path string
}

// NewStore names the record file. Nothing touches the filesystem until Save
// or Load.
func NewStore(path string) *Store { return &Store{path: path} }

// Save atomically replaces the record: temp file, fsync, rename. The record
// must carry a snapshot — a certificate alone cannot restore a machine.
func (s *Store) Save(rec *Record) error {
	if rec == nil || rec.Cert.Snapshot == "" {
		return fmt.Errorf("ckpt: store save needs a certificate with a snapshot")
	}
	body, err := appendRecord(nil, rec)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(body)
	buf := make([]byte, 0, storeHeaderLen+len(body))
	buf = append(buf, storeMagic[:]...)
	buf = append(buf, storeVersion)
	buf = append(buf, sum[:]...)
	buf = append(buf, body...)

	// The record's directory is created on first save, so pointing a fresh
	// deployment at a not-yet-existing store directory works; the temp file
	// always lives beside the record, keeping the rename on one filesystem.
	if dir := filepath.Dir(s.path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("ckpt: store save: %w", err)
		}
	}
	if err := WriteFileAtomic(s.path, buf); err != nil {
		return fmt.Errorf("ckpt: store save: %w", err)
	}
	return nil
}

// WriteFileAtomic replaces the file at path with data: it writes a temp file
// beside path, syncs and closes it, renames it over path, then syncs the
// directory so that the rename itself is on disk. A crash at any instant
// leaves either the old file (none, on a first save) or the new one, and
// once it returns nil the new one survives a power loss; a failed write
// removes the temp file. The durable store, the sweep manifest and the
// search frontier all save through it.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads and strictly validates the record. ErrNoRecord means no file;
// ErrCorrupt wraps every integrity failure (bad magic, version, checksum,
// truncated or trailing bytes, malformed fields). The caller must still
// verify the certificate itself (VerifyCertPayload): the checksum detects
// corruption, only the MAC quorum authenticates the content.
func (s *Store) Load() (*Record, error) {
	data, err := os.ReadFile(s.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNoRecord
		}
		return nil, fmt.Errorf("ckpt: store load: %w", err)
	}
	if len(data) < storeHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte file", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:4], storeMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != storeVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorrupt, data[4])
	}
	body := data[storeHeaderLen:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(data[5:storeHeaderLen], sum[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	rec, err := readRecord(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if rec.Cert.Snapshot == "" {
		return nil, fmt.Errorf("%w: record without snapshot", ErrCorrupt)
	}
	return rec, nil
}

// appendRecord encodes a record body: length-prefixed wire certificate,
// then the suffix entries.
func appendRecord(buf []byte, rec *Record) ([]byte, error) {
	cert, err := wire.EncodePayload(&rec.Cert)
	if err != nil {
		return nil, fmt.Errorf("ckpt: store save: %w", err)
	}
	buf = binary.AppendUvarint(buf, uint64(len(cert)))
	buf = append(buf, cert...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Suffix)))
	for _, e := range rec.Suffix {
		if e.Slot < 0 || e.Index < 0 || e.Proposer < 0 {
			return nil, fmt.Errorf("ckpt: store save: negative suffix field")
		}
		buf = binary.AppendUvarint(buf, uint64(e.Slot))
		buf = binary.AppendUvarint(buf, uint64(e.Index))
		buf = binary.AppendUvarint(buf, uint64(int64(e.Proposer)))
		buf = binary.AppendUvarint(buf, uint64(len(e.Command)))
		buf = append(buf, e.Command...)
	}
	return buf, nil
}

// readRecord decodes a record body with wire's field reader: the suffix
// entries first, then the certificate through the strict wire decoder.
// Commands are cloned so a restored suffix does not pin the whole body.
func readRecord(body []byte) (*Record, error) {
	r := wire.NewReader(string(body))
	cert := r.Str(2 * wire.MaxBodyLen)
	var rec Record
	if n := r.Count(maxSuffixEntries); n > 0 {
		rec.Suffix = make([]LogEntry, n)
		for i := range rec.Suffix {
			rec.Suffix[i] = LogEntry{
				Slot:     int(r.Uint(maxEntryField)),
				Index:    int(r.Uint(maxEntryField)),
				Proposer: types.ProcessID(r.Uint(maxEntryField)),
				Command:  strings.Clone(r.Str(wire.MaxBodyLen)),
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	p, err := wire.DecodePayload([]byte(cert))
	if err != nil {
		return nil, err
	}
	c, ok := p.(*types.CkptCertPayload)
	if !ok {
		return nil, fmt.Errorf("record holds %T, want certificate", p)
	}
	rec.Cert = *c
	return &rec, nil
}
