package smr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Snapshotter extends StateMachine with deterministic serialization — the
// application contract for protocol-level checkpointing (Config.
// CheckpointEvery). Snapshot must be a pure function of the applied command
// sequence, identical at every correct replica after the same log prefix:
// the checkpoint subsystem digests it into the certified StateDigest, and
// state transfer installs it verbatim at a restarted replica via Restore.
type Snapshotter interface {
	StateMachine
	// Snapshot serializes the complete application state.
	Snapshot() string
	// Restore replaces the application state with a snapshot previously
	// produced by Snapshot (on any replica).
	Restore(snapshot string) error
}

// KVMachine is the reference Snapshotter: a deterministic key-value store
// driven by "set <key> <value>" commands. It is what the runner harness and
// the experiments replicate; tests use it to compare
// state digests across replicas and runs.
type KVMachine struct {
	state   map[string]string
	applied int
}

// NewKVMachine returns an empty store.
func NewKVMachine() *KVMachine { return &KVMachine{state: make(map[string]string)} }

// Apply implements StateMachine.
func (m *KVMachine) Apply(cmd string) error {
	m.applied++
	parts := strings.Fields(cmd)
	if len(parts) != 3 || parts[0] != "set" {
		return fmt.Errorf("smr: bad command %q", cmd)
	}
	m.state[parts[1]] = parts[2]
	return nil
}

// Get returns a key's value ("" if unset).
func (m *KVMachine) Get(key string) string { return m.state[key] }

// Applied returns how many commands have been applied (including malformed
// ones, which count but mutate nothing — every replica rejects them
// identically).
func (m *KVMachine) Applied() int { return m.applied }

// Snapshot implements Snapshotter: the applied count followed by the state
// as sorted "key value" lines. Sorting makes the encoding a pure function
// of the state, whatever map iteration order the runtime picks; the space
// separator makes it injective, because Apply's field-splitting guarantees
// keys and values never contain whitespace (an '='-separated encoding would
// let the states {"a=b": "c"} and {"a": "b=c"} collide on the same
// snapshot, and a restored replica would diverge under an identical
// StateDigest).
func (m *KVMachine) Snapshot() string {
	keys := make([]string, 0, len(m.state))
	// order-free: keys sorted below
	for k := range m.state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "#%d\n", m.applied)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(' ')
		b.WriteString(m.state[k])
		b.WriteByte('\n')
	}
	return b.String()
}

// Restore implements Snapshotter.
func (m *KVMachine) Restore(snapshot string) error {
	lines := strings.Split(snapshot, "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "#") {
		return fmt.Errorf("smr: malformed snapshot header")
	}
	applied, err := strconv.Atoi(lines[0][1:])
	if err != nil {
		return fmt.Errorf("smr: malformed snapshot header: %v", err)
	}
	state := make(map[string]string, len(lines))
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return fmt.Errorf("smr: malformed snapshot line %q", line)
		}
		state[k] = v
	}
	m.state = state
	m.applied = applied
	return nil
}
