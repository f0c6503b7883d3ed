package smr

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fieldsSet is the reference parse of a KVMachine command: strings.Fields,
// then the "set <key> <value>" shape check.
func fieldsSet(cmd string) (key, value string, ok bool) {
	f := strings.Fields(cmd)
	if len(f) != 3 || f[0] != "set" {
		return "", "", false
	}
	return f[1], f[2], true
}

// fieldsOf splits s with nextField, for comparison with strings.Fields.
func fieldsOf(s string) []string {
	var out []string
	for start, end := nextField(s, 0); start < end; start, end = nextField(s, end) {
		out = append(out, s[start:end])
	}
	return out
}

// FuzzKVApply holds the one-pass command parser to strings.Fields. The input
// is a NUL-separated command script; each command, and the whole input as
// one command, must split into the fields strings.Fields returns and parse
// to the same (key, value, ok). After the script, Snapshot → Restore →
// Snapshot must be byte-identical, which holds only while keys and values
// never contain whitespace (see Snapshot).
func FuzzKVApply(f *testing.F) {
	for _, seed := range []string{
		"",
		"set a 1\x00set b 2\x00set a 3\x00garbage\x00set a=b c",
		"set\tk\nv\x00set k\vv\x00set\fk\rv",
		" \t\n\v\f\rset k v \t\n\v\f\r",
		"set k\u0085v\x00set\u00a0k\u2000v\x00set k\u3000v",
		"set\u3000k v\u3000extra\x00set\u2000k\u00a0v \u0085",
		"set k\xff\xfev\x00set \xc2 v\x00set k\xc2\x00set \xc2\x85 v",
		"set k\x7fv\x00set \x7f \x01",
		"set abcdefg hijklmn\x00set abcdefgh ijklmnop\x00set abcdefghi jklmnopqr",
		"set abcdefgh\u3000v\x00set abcdefg\u00a0v\x00set abcdefghi\xffv",
		"set a b c\x00get a b\x00set a\x00set  a  b  ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		m := NewKVMachine()
		for _, cmd := range append(strings.Split(script, "\x00"), script) {
			if got, want := fieldsOf(cmd), strings.Fields(cmd); !slices.Equal(got, want) {
				t.Fatalf("fields of %q: got %q, want %q", cmd, got, want)
			}
			key, value, ok := parseSet(cmd)
			wantKey, wantValue, wantOK := fieldsSet(cmd)
			if key != wantKey || value != wantValue || ok != wantOK {
				t.Fatalf("parse %q: got (%q, %q, %v), want (%q, %q, %v)",
					cmd, key, value, ok, wantKey, wantValue, wantOK)
			}
			if err := m.Apply(cmd); (err == nil) != ok {
				t.Fatalf("Apply(%q) = %v, parse ok = %v", cmd, err, ok)
			}
			if ok && m.state[key] != value {
				t.Fatalf("after %q: Get(%q) = %q", cmd, key, m.state[key])
			}
		}
		snap := m.Snapshot()
		restored := NewKVMachine()
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("Restore(%q): %v", snap, err)
		}
		if again := restored.Snapshot(); again != snap {
			t.Fatalf("snapshot round trip: %q became %q", snap, again)
		}
	})
}

// kvRestoreSeeds is FuzzKVRestore's checked-in seed corpus: the snapshots
// Restore must reject, and canonical ones it must accept.
func kvRestoreSeeds() map[string]string {
	seeds := maps.Clone(nonCanonicalSnapshots)
	seeds["canonical-empty"] = "#0\n"
	seeds["canonical-sorted"] = "#4\na 3\nb 2\nz/9 ok\n"
	seeds["canonical-equals-key"] = "#2\na 3\na=b c\n"
	seeds["canonical-non-ascii"] = "#3\nk\u00e9 v\u00b7w\nk\xffv x\n"
	return seeds
}

// TestKVRestoreCorpusCurrent: the checked-in seed corpus is kvRestoreSeeds,
// one file per name, and Restore accepts exactly its canonical seeds.
func TestKVRestoreCorpusCurrent(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(kvRestoreSeeds())) {
		if err := NewKVMachine().Restore(kvRestoreSeeds()[name]); (err == nil) != strings.HasPrefix(name, "canonical-") {
			t.Errorf("%s: Restore error = %v", name, err)
		}
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzKVRestore", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", kvRestoreSeeds()[name]); string(raw) != want {
			t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, want)
		}
	}
}

// FuzzKVRestore holds Restore to Snapshot's encoding from both sides. Any
// input Restore accepts is what Snapshot returns afterwards, and a rejected
// one leaves the machine as it was. Read as a script, each line L of the
// input applied as the command "set L", the input builds a state whose
// snapshot Restore must accept.
func FuzzKVRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		m := NewKVMachine()
		m.Apply("set x y") //nolint:errcheck — well-formed
		before := m.Snapshot()
		if err := m.Restore(in); err != nil {
			if after := m.Snapshot(); after != before {
				t.Fatalf("rejected Restore(%q) moved the state from %q to %q", in, before, after)
			}
		} else if got := m.Snapshot(); got != in {
			t.Fatalf("Restore accepted %q, which snapshots as %q", in, got)
		}
		built := NewKVMachine()
		for _, line := range strings.Split(in, "\n") {
			built.Apply("set " + line) //nolint:errcheck — most lines are not commands
		}
		snap := built.Snapshot()
		if err := m.Restore(snap); err != nil {
			t.Fatalf("Restore(%q) of an Apply-built state: %v", snap, err)
		}
		if got := m.Snapshot(); got != snap {
			t.Fatalf("snapshot round trip: %q became %q", snap, got)
		}
	})
}

// BenchmarkKVApply applies a short command (the runner's shape) and one with
// a 2 KiB value (the coded benchmark workload's).
func BenchmarkKVApply(b *testing.B) {
	for _, bc := range []struct{ name, cmd string }{
		{"short", "set k3-12 v3-12"},
		{"2KiB", "set key " + strings.Repeat("0123456789abcdef", 128)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewKVMachine()
			b.SetBytes(int64(len(bc.cmd)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.Apply(bc.cmd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotSizedOnce: Snapshot allocates its sorted key list and one
// buffer of exactly the snapshot's length, however many keys and bytes the
// state holds; the encoding is the documented one.
func TestSnapshotSizedOnce(t *testing.T) {
	m := NewKVMachine()
	for i := 0; i < 500; i++ {
		if err := m.Apply(fmt.Sprintf("set k%03d %s", i, strings.Repeat("v", i%40+1))); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if !strings.HasPrefix(snap, "#500\nk000 v\nk001 vv\n") || !strings.HasSuffix(snap, "\nk499 "+strings.Repeat("v", 20)+"\n") {
		t.Fatalf("snapshot encoding changed: %.40q…", snap)
	}
	if allocs := testing.AllocsPerRun(20, func() { m.Snapshot() }); allocs != 2 {
		t.Errorf("Snapshot cost %.0f allocs, want 2 (the key list and the output)", allocs)
	}
}
