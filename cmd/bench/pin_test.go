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
			"b30574194cae4068d324c1095f230488acdcb79b335c775e2d0555b21f8f72ff"},
		{[]string{"smr", "-slots", "32", "-n", "4", "-ckpt-every", "8", "-restart", "-ckpt-attack", "stale-responder"},
			"83f5338e6dd84331e36d9f7db2a25a1b3169d09467438cb0857da3f38c3a7eee"},
		{[]string{"smr", "-slots", "16", "-n", "4", "-ckpt-every", "4", "-coded", "-json"},
			"bb5fb4e707689f91d7227cf0273d0546f2f8c7c7fa696159a55fc612f9ff881f"},
		{[]string{"throughput", "-entries", "8", "-n", "4", "-batch", "1,4", "-pipeline", "1,2", "-ckpt-every", "4", "-json"},
			"e12e79c5aa382e5db2cd6d7c34d478fcd599cada5f0c6f12b459d1d7fb172bf3"},
		{[]string{"search", "-family", "lossy", "-n", "4", "-seeds", "1:3", "-json"},
			"2244bc62c7e16dcd8047a3a4784287572fb8ba63881c3f41a2639925eb84ad0a"},
		{[]string{"search", "-family", "adaptive", "-n", "8", "-seeds", "1:4", "-json"},
			"1abb02a73a04c3f1e2b2cd1ee5485f057be597b105fe337e3db5f01c5d1baf4b"},
		{[]string{"search", "-family", "lossy", "-n", "8", "-seeds", "1:4", "-json"},
			"0b800238537ab253bb9cb35ee520b2e5ab682256384440310890dd5406fc1bfe"},
		{[]string{"search", "-family", "reorder", "-n", "8", "-seeds", "1:4", "-json"},
			"36ff7ae65926e413ab5464937f9a2098dcf52d52f9c20ee937904b0f9ae87b3a"},
		{[]string{"search", "-family", "straggler", "-n", "8", "-seeds", "1:4", "-json"},
			"3a889ed10610d2d6ca40d9a731c9f01f0d146af187007f9f45243a8bb270bcd3"},
		{[]string{"search", "-family", "topology", "-n", "8", "-seeds", "1:4", "-json"},
			"8a44ef04fefc2b66d0969ac9810b032c1fc455b5ab9509cdcf905f9a1d293dec"},
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
