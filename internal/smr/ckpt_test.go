package smr

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// buildCkptSMR wires an all-live checkpointing cluster and runs it until
// every replica committed maxSlots slots.
func buildCkptSMR(t *testing.T, n, f, maxSlots, every int, seed int64) []*Replica {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 25}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]*Replica, 0, n)
	for _, p := range peers {
		p := p
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return coin.NewLocal(seed + int64(p)*1000 + int64(slot))
			},
			Machine:          NewKVMachine(),
			maxSlots:         maxSlots,
			CheckpointEvery:  every,
			CheckpointSecret: []byte("test-cluster"),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Submit("set a 1")
		rep.Submit("set b 2")
		replicas = append(replicas, rep)
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(func() bool {
		for _, rep := range replicas {
			if !rep.Done() {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return replicas
}

func TestCheckpointCertifiesTruncatesAndAgrees(t *testing.T) {
	const slots, every = 16, 4
	replicas := buildCkptSMR(t, 4, 1, slots, every, 3)
	first := replicas[0]
	for _, rep := range replicas {
		if got := rep.CertifiedCut(); got < slots-2*every {
			t.Errorf("%v certified cut %d, want ≥ %d", rep.ID(), got, slots-2*every)
		}
		if rep.Base() == 0 {
			t.Errorf("%v never truncated its log (base 0 after %d slots)", rep.ID(), slots)
		}
		if got, want := rep.LogLen(), slots-rep.Base(); got != want {
			t.Errorf("%v retains %d entries from base %d, want %d", rep.ID(), got, rep.Base(), want)
		}
		// The chained digest covers the full history even though the prefix
		// entries are gone — so all replicas still prove the same log.
		if rep.LogDigest() != first.LogDigest() {
			t.Errorf("%v log digest %x, %v has %x", rep.ID(), rep.LogDigest(), first.ID(), first.LogDigest())
		}
		sd, ok := rep.StateDigest()
		fd, _ := first.StateDigest()
		if !ok || sd != fd {
			t.Errorf("%v state digest %x ok=%v, want %x", rep.ID(), sd, ok, fd)
		}
		// Residue below the cut is gone: the dissemination layer retains
		// records only for slots at or above the cut.
		if got := rep.RBCCompacted(); got > slots-rep.CertifiedCut()+1 {
			t.Errorf("%v retains %d digest records past the cut", rep.ID(), got)
		}
	}
}

func TestCheckpointLogSinceServesTailAcrossTruncation(t *testing.T) {
	replicas := buildCkptSMR(t, 4, 1, 12, 4, 9)
	rep := replicas[0]
	if rep.Base() == 0 {
		t.Fatal("precondition: no truncation happened")
	}
	// LogSince below the base silently starts at the base.
	tail := rep.LogSince(0)
	if len(tail) != rep.LogLen() {
		t.Fatalf("LogSince(0) returned %d entries, retained %d", len(tail), rep.LogLen())
	}
	if tail[0].Slot != rep.Base() {
		t.Fatalf("LogSince(0) starts at %d, base %d", tail[0].Slot, rep.Base())
	}
	// A cursor past the frontier yields nothing.
	if got := rep.LogSince(rep.Slot()); got != nil {
		t.Fatalf("LogSince(frontier) = %v", got)
	}
	// LogSince(0) is a copy of the whole retained log.
	if !reflect.DeepEqual(tail, rep.log.entries) || &tail[0] == &rep.log.entries[0] {
		t.Fatal("LogSince(0) is not a copy of the retained tail")
	}
}

func TestCheckpointConfigValidation(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	base := Config{
		Me: 1, Peers: peers, Spec: spec,
		NewCoin:          func(int) coin.Coin { return coin.NewIdeal(1) },
		Machine:          NewKVMachine(),
		CheckpointEvery:  4,
		CheckpointSecret: []byte("s"),
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid checkpoint config rejected: %v", err)
	}
	noSnap := base
	noSnap.Machine = plainMachine{}
	if _, err := New(noSnap); !errors.Is(err, ErrNoSnapshotter) {
		t.Errorf("non-Snapshotter machine: err = %v", err)
	}
	noSecret := base
	noSecret.CheckpointSecret = nil
	if _, err := New(noSecret); !errors.Is(err, ErrNoCkptSecret) {
		t.Errorf("missing secret: err = %v", err)
	}
}

// plainMachine implements only StateMachine.
type plainMachine struct{}

func (plainMachine) Apply(string) error { return nil }

func TestKVMachineSnapshotRoundTrip(t *testing.T) {
	m := NewKVMachine()
	cmds := []string{"set a 1", "set b 2", "set a 3", "garbage", "set z/9 ok", "set a=b c"}
	for _, c := range cmds {
		m.Apply(c) //nolint:errcheck — the malformed command is intentional
	}
	snap := m.Snapshot()
	restored := NewKVMachine()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Snapshot() != snap {
		t.Fatal("snapshot round trip not idempotent")
	}
	if restored.state["a"] != "3" || restored.state["b"] != "2" || restored.state["z/9"] != "ok" {
		t.Fatal("restored state wrong")
	}
	// Keys containing '=' must survive the round trip distinctly: the
	// encoding is space-separated precisely because {"a=b": "c"} and
	// {"a": "b=c"} would collide under an '='-separated one.
	if restored.state["a=b"] != "c" || restored.state["a"] != "3" {
		t.Fatalf("'='-bearing key collapsed: a=b→%q a→%q", restored.state["a=b"], restored.state["a"])
	}
	if restored.applied != len(cmds) {
		t.Fatalf("restored applied = %d, want %d", restored.applied, len(cmds))
	}
	// Restore accepts only Snapshot's own encoding of a reachable state; a
	// rejected snapshot leaves the machine as it was.
	for name, bad := range nonCanonicalSnapshots {
		if err := restored.Restore(bad); err == nil {
			t.Errorf("%s: Restore(%q) accepted a snapshot Snapshot never writes", name, bad)
		}
		if restored.Snapshot() != snap {
			t.Errorf("%s: rejected Restore(%q) changed the machine", name, bad)
		}
	}
}

// nonCanonicalSnapshots are inputs KVMachine.Restore must reject: each parses
// under a lax reader, but none is Snapshot's encoding of a state Apply can
// reach. They seed FuzzKVRestore too.
var nonCanonicalSnapshots = map[string]string{
	"no-header":        "no-header",
	"broken-line":      "#3\nbroken-line\n",
	"empty":            "",
	"header-only":      "#1",
	"unsorted":         "#2\nb 2\na 1\n",
	"duplicate-key":    "#2\na 1\na 2\n",
	"plus-count":       "#+1\na 1\n",
	"zero-padded":      "#01\na 1\n",
	"negative-count":   "#-4\n",
	"minus-zero":       "#-0\n",
	"blank-line":       "#2\na 1\n\nb 2\n",
	"leading-blank":    "#1\n\na 1\n",
	"no-final-newline": "#1\na 1",
	"space-in-value":   "#1\na 1 2\n",
	"tab-in-key":       "#1\na\tb 1\n",
	"unicode-space":    "#1\na 1\u30002\n",
	"empty-key":        "#1\n 1\n",
	"empty-value":      "#1\na \n",
	"more-keys":        "#1\na 1\nb 2\n",
	"crlf":             "#1\r\na 1\r\n",
}
