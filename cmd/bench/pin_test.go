package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCLIOutputsPinned holds every deterministic output of the command line
// to a SHA-256: of stdout, or of the file a row names with the FILE
// placeholder. A change to the flag surface edits the argv column only.
func TestCLIOutputsPinned(t *testing.T) {
	tests := []struct {
		argv []string
		sha  string
	}{
		{[]string{"sweep", "-seeds", "1:9", "-n", "7", "-scenario", "equivocation-rush", "-workers", "2", "-json"},
			"e712b007ba888437d6d404998ded47ff138ddbdfb15adb1e16b027795fd55490"},
		{[]string{"smr", "-slots", "32", "-n", "4", "-ckpt-every", "8", "-restart", "-ckpt-attack", "stale-responder"},
			"83f5338e6dd84331e36d9f7db2a25a1b3169d09467438cb0857da3f38c3a7eee"},
		{[]string{"smr", "-slots", "16", "-n", "4", "-ckpt-every", "4", "-coded", "-json"},
			"bb5fb4e707689f91d7227cf0273d0546f2f8c7c7fa696159a55fc612f9ff881f"},
		{[]string{"throughput", "-entries", "8", "-n", "4", "-batch", "1,4", "-pipeline", "1,2", "-ckpt-every", "4", "-json"},
			"e12e79c5aa382e5db2cd6d7c34d478fcd599cada5f0c6f12b459d1d7fb172bf3"},
		{[]string{"search", "-family", "lossy", "-n", "4", "-seeds", "1:3", "-json"},
			"2244bc62c7e16dcd8047a3a4784287572fb8ba63881c3f41a2639925eb84ad0a"},
		{[]string{"search", "-family", "adaptive", "-n", "4", "-seeds", "1:3", "-descend", "-json"},
			"5c1e5d2107a1015b8af42f3740b654ec0b6e8f4666eb101059b81fecd5590729"},
		{[]string{"telemetry", "-n", "4", "-runs", "2", "-json"},
			"1098f452660fe1f73b3fa4ccc546b2818931008f24cb471b11988388f69df271"},
		{[]string{"run", "-n", "8", "-adversary", "none", "-inputs", "random", "-trace", "FILE"},
			"644e66f54d04ee194d12f90048827e68a5416352c83d092c0059fec6be0b03f7"},
		{[]string{"run", "-n", "7", "-f", "2", "-adversary", "liar", "-scheduler", "adaptive-rush", "-inputs", "random", "-seed", "3"},
			"ae973f99cccb9be262835e795ed1ffba9207f888dc455e19d7b89885fbd4a9ef"},
	}
	for _, tt := range tests {
		argv, file := slices.Clone(tt.argv), ""
		if i := slices.Index(argv, "FILE"); i >= 0 {
			file = filepath.Join(t.TempDir(), "out")
			argv[i] = file
		}
		var out bytes.Buffer
		if err := run(argv, &out); err != nil {
			t.Errorf("%v: %v", tt.argv, err)
			continue
		}
		got := out.Bytes()
		if file != "" {
			var err error
			if got, err = os.ReadFile(file); err != nil {
				t.Fatal(err)
			}
		}
		if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != tt.sha {
			t.Errorf("%v: sha256 %x, want %s", tt.argv, sum, tt.sha)
		}
	}
}
