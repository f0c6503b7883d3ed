package smr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
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
//
// The parse contract is exactly strings.Fields: a command is well-formed when
// it splits into the three fields "set", key and value, with unicode.IsSpace
// runs (Unicode spaces such as U+0085 and U+3000 included) as separators and
// any invalid UTF-8 byte counting as a non-space. Apply implements it in one
// pass over the command (see nextField); the test oracle is strings.Fields.
//
// Keys and values are never copies. Apply takes them as substrings of the
// command, which under a Replica is a substring of the batch body it
// delivered (wire.DecodeBatch); Restore takes them as substrings of the
// snapshot. So a live value keeps its whole body or snapshot alive, and a
// batch body holds at most wire.MaxBatchBytes of commands plus their
// framing.
type KVMachine struct {
	state   map[string]string
	applied int
}

// NewKVMachine returns an empty store.
func NewKVMachine() *KVMachine { return &KVMachine{state: make(map[string]string)} }

// Apply implements StateMachine.
func (m *KVMachine) Apply(cmd string) error {
	m.applied++
	key, value, ok := parseSet(cmd)
	if !ok {
		return fmt.Errorf("smr: bad command %q", cmd)
	}
	m.state[key] = value
	return nil
}

// parseSet returns the key and value of a "set <key> <value>" command, split
// into fields as strings.Fields splits it, without building the field slice.
func parseSet(cmd string) (key, value string, ok bool) {
	var f [3]string
	n := 0
	for start, end := nextField(cmd, 0); start < end; start, end = nextField(cmd, end) {
		if n == len(f) {
			return "", "", false
		}
		f[n] = cmd[start:end]
		n++
	}
	if n != len(f) || f[0] != "set" {
		return "", "", false
	}
	return f[1], f[2], true
}

// nextField returns the bounds of the first field of s at or after i: a
// maximal run of runes that are not unicode.IsSpace, strings.Fields' notion
// of a field (an invalid UTF-8 byte decodes as a one-byte U+FFFD, which is
// not a space). When no field is left, start == end == len(s).
//
// Commands are mostly printable ASCII (0x21..0x7E), which is never space, so
// the field scan strides over such runs eight bytes at a time, steps byte by
// byte up to the byte that stopped the stride, and decodes a rune only
// there. The word test is the pair "has a
// byte less than 0x21" (that byte borrows into its top bit) and "has a byte
// greater than 0x7E" (that byte carries into, or already has, its top bit),
// each exact as a yes/no question (Anderson, Bit Twiddling Hacks).
func nextField(s string, i int) (start, end int) {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for i < len(s) {
		space, w := spaceAt(s, i)
		if !space {
			break
		}
		i += w
	}
	start = i
	for i < len(s) {
		for ; i+8 <= len(s); i += 8 {
			w := s[i : i+8]
			x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
				uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
			if ((x-0x21*ones)&^x|(x+ones)|x)&highs != 0 {
				break
			}
		}
		for i < len(s) && s[i]-0x21 < 0x7F-0x21 {
			i++
		}
		if i == len(s) {
			break
		}
		space, w := spaceAt(s, i)
		if space {
			break
		}
		i += w
	}
	return start, i
}

// spaceAt reports whether the rune at s[i] is unicode.IsSpace, and its width.
func spaceAt(s string, i int) (space bool, width int) {
	if c := s[i]; c < utf8.RuneSelf {
		return asciiSpace>>c&1 != 0, 1
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), w
}

// asciiSpace has bit c set for each ASCII c that unicode.IsSpace accepts:
// '\t', '\n', '\v', '\f', '\r' and ' '.
const asciiSpace uint64 = 1<<'\t' | 1<<'\n' | 1<<'\v' | 1<<'\f' | 1<<'\r' | 1<<' '

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
	// Sized once: the header, then one "key value\n" line per key.
	var num [20]byte
	applied := strconv.AppendInt(num[:0], int64(m.applied), 10)
	size := 1 + len(applied) + 1
	for _, k := range keys {
		size += len(k) + 1 + len(m.state[k]) + 1
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('#')
	b.Write(applied)
	b.WriteByte('\n')
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(' ')
		b.WriteString(m.state[k])
		b.WriteByte('\n')
	}
	return b.String()
}

// Restore implements Snapshotter. It accepts exactly Snapshot's encoding of
// a state Apply can reach — the applied count in canonical decimal, then one
// "key value" line per key in strictly ascending key order, where neither
// key nor value is empty or holds a unicode.IsSpace rune, and no more keys
// than applied commands — so a snapshot it accepts is what Snapshot returns
// afterwards, byte for byte. Anything else is an error and leaves the
// machine unchanged.
func (m *KVMachine) Restore(snapshot string) error {
	header, body, ok := strings.Cut(snapshot, "\n")
	count, hash := strings.CutPrefix(header, "#")
	applied, err := strconv.Atoi(count)
	if !ok || !hash || err != nil || applied < 0 || strconv.Itoa(applied) != count {
		return fmt.Errorf("smr: malformed snapshot header %q", header)
	}
	state := make(map[string]string)
	prev := ""
	for body != "" {
		line, rest, ok := strings.Cut(body, "\n")
		k, v, sep := strings.Cut(line, " ")
		if !ok || !sep || k <= prev || v == "" ||
			strings.ContainsFunc(k, unicode.IsSpace) || strings.ContainsFunc(v, unicode.IsSpace) {
			return fmt.Errorf("smr: malformed snapshot line %q", line)
		}
		state[k] = v
		prev, body = k, rest
	}
	if len(state) > applied {
		return fmt.Errorf("smr: snapshot holds %d keys after %d commands", len(state), applied)
	}
	m.state = state
	m.applied = applied
	return nil
}
