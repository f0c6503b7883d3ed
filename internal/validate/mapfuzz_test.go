package validate

// The production Validator against mapValidator, its map-based predecessor:
// a script of Record, PruneBelow and Justified calls drives both, and after
// every call the two must agree on what Record folded (and in which order),
// on SeenRetained, JustificationsRetained, Pending and Tallied, and on every
// Justified answer. Scripts reach what the dense layout treats specially:
// non-peer senders (0, N+1, huge and negative IDs), peers on both sides of a
// bitset word boundary, rounds below the floor, past the seen ring and near
// 1<<30, floors that jump past the ring, duplicates and malformed messages.
// In the re-armed mode a validator that ran one script is reset and runs a
// second, which must also match a freshly built validator call by call.

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// scriptSpecs are the system sizes a script picks from; a row holds one bit
// per peer, so n=64 fills one bitset word exactly and n=65's last peer is
// alone in a second.
var scriptSpecs = []struct{ n, f int }{{4, 1}, {7, 2}, {16, 5}, {64, 21}, {65, 21}}

// scriptOutsiders follow the peers 1..N in a script's sender palette.
func scriptOutsiders(n int) []types.ProcessID {
	return []types.ProcessID{0, types.ProcessID(n + 1), types.ProcessID(n + 2), 1 << 31, 1 << 62, -1}
}

// Script operations, one byte each, followed by their operand bytes.
const (
	opRecord    = iota // sender, round, message
	opFlood            // round, message, value pattern, sender count
	opPrune            // target
	opJustified        // round, message
	opKinds
)

const maxScriptOps = 4000

// farRounds are what round bytes 240..255 name.
var farRounds = []int{1 << 30, 1<<30 - 1, 1<<30 + 1, 1<<30 + 5, 0, -1, 1 << 20, 2}

// scriptRound decodes a round byte against the current floor: most bytes
// name a round from three below max(floor, 1) to eight above it (below the
// floor, in the seen ring, past it), then small absolute rounds, then
// farRounds.
func scriptRound(floor, x int) int {
	switch {
	case x < 224:
		return max(floor, 1) - 3 + x%12
	case x < 240:
		return 1 + x%16
	default:
		return farRounds[x%len(farRounds)]
	}
}

// scriptPrune decodes a PruneBelow target: a small step from the floor
// (one below it to four above), a jump past the seen ring, or a far floor.
func scriptPrune(floor, x int) int {
	switch {
	case x < 160:
		return floor - 1 + x%6
	case x < 240:
		return floor + seenSpan + x%8
	case x < 248:
		return 1<<30 - 2 + x%4
	default:
		return 0
	}
}

// scriptMsg decodes a message byte: bytes below 240 are well-formed (step,
// value, and D on step 3), the rest four malformed shapes.
func scriptMsg(round, b int) types.StepMessage {
	if b >= 240 {
		return [...]types.StepMessage{
			{Round: round, Step: 0, V: types.Zero},
			{Round: round, Step: 4, V: types.One},
			{Round: round, Step: types.Step2, V: 2},
			{Round: round, Step: types.Step1, V: types.One, D: true},
		}[b%4]
	}
	step := types.Step(1 + b%3)
	return types.StepMessage{Round: round, Step: step, V: types.Value(b / 3 % 2), D: step == types.Step3 && b/6%2 == 1}
}

type scriptReader struct{ data []byte }

func (r *scriptReader) done() bool { return len(r.data) == 0 }

func (r *scriptReader) next(mod int) int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b) % mod
}

// validatorRun holds the validators a script drives. fresh is set when got
// is a re-armed validator: a newly built one that every call and counter of
// got must match as well.
type validatorRun struct {
	t     *testing.T
	name  string
	got   *Validator
	want  *mapValidator
	fresh *Validator
	op    int
}

func (s *validatorRun) fail(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s: op %d: %s", s.name, s.op, fmt.Sprintf(format, args...))
}

func (s *validatorRun) record(from types.ProcessID, m types.StepMessage) {
	s.t.Helper()
	got, want := s.got.Record(from, m), s.want.Record(from, m)
	if !slices.Equal(got, want) {
		s.fail("Record(%v, %v) folded %v, map validator %v", from, m, got, want)
	}
	if s.fresh != nil {
		if fresh := s.fresh.Record(from, m); !slices.Equal(got, fresh) {
			s.fail("Record(%v, %v) folded %v, fresh validator %v", from, m, got, fresh)
		}
	}
	s.compare()
}

// prune applies PruneBelow(floor) to every validator of the run.
func (s *validatorRun) prune(floor int) {
	s.got.PruneBelow(floor)
	s.want.PruneBelow(floor)
	if s.fresh != nil {
		s.fresh.PruneBelow(floor)
	}
	s.compare()
}

func (s *validatorRun) compare() {
	s.t.Helper()
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"SeenRetained", s.got.SeenRetained(), s.want.SeenRetained()},
		{"JustificationsRetained", s.got.JustificationsRetained(), s.want.JustificationsRetained()},
		{"Pending", s.got.Pending(), s.want.Pending()},
		{"Tallied", s.got.Tallied(), s.want.Tallied()},
	} {
		if c.got != c.want {
			s.fail("%s = %d, map validator %d", c.what, c.got, c.want)
		}
	}
	if f := s.fresh; f != nil {
		for _, c := range []struct {
			what       string
			got, fresh int
		}{
			{"SeenRetained", s.got.SeenRetained(), f.SeenRetained()},
			{"JustificationsRetained", s.got.JustificationsRetained(), f.JustificationsRetained()},
			{"Pending", s.got.Pending(), f.Pending()},
			{"Tallied", s.got.Tallied(), f.Tallied()},
		} {
			if c.got != c.fresh {
				s.fail("%s = %d, fresh validator %d", c.what, c.got, c.fresh)
			}
		}
	}
}

// runValidatorScript decodes data — a spec byte (its size and whether the
// validators are lax), then operations — and runs it against both
// validators.
func runValidatorScript(t *testing.T, name string, data []byte) {
	t.Helper()
	driveValidatorScript(t, name, data, nil)
}

// runRearmedValidatorScript runs data's operations in two halves under its
// spec byte: the first half on a new validator, which is then re-armed
// (Reset) and runs the second half against the map validator and a freshly
// built validator. A re-armed validator keeps its spec and laxness, so both
// halves share the spec byte.
func runRearmedValidatorScript(t *testing.T, name string, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	mid := 1 + (len(data)-1)/2
	v := driveValidatorScript(t, name+"/first", data[:mid], nil)
	driveValidatorScript(t, name+"/rearmed", append(data[:1:1], data[mid:]...), v)
}

// driveValidatorScript runs data against the map validator and a
// Validator: a new one when v is nil, else v re-armed, which must then also
// match a freshly built validator call by call. It returns the validator it
// drove.
func driveValidatorScript(t *testing.T, name string, data []byte, v *Validator) *Validator {
	t.Helper()
	r := &scriptReader{data: data}
	sel := r.next(2 * len(scriptSpecs))
	sys := scriptSpecs[sel%len(scriptSpecs)]
	spec := quorum.MustNew(sys.n, sys.f)
	s := &validatorRun{t: t, name: name, got: New(spec), want: newMapValidator(spec)}
	if sel >= len(scriptSpecs) {
		s.got, s.want = NewLax(spec), newLaxMapValidator(spec)
	}
	if v != nil {
		v.Reset()
		s.got, s.fresh = v, s.got
	}
	senders := make([]types.ProcessID, 0, sys.n+6)
	for p := 1; p <= sys.n; p++ {
		senders = append(senders, types.ProcessID(p))
	}
	senders = append(senders, scriptOutsiders(sys.n)...)
	for ; !r.done() && s.op < maxScriptOps; s.op++ {
		switch r.next(opKinds) {
		case opRecord:
			from := senders[r.next(len(senders))]
			round := scriptRound(s.want.floor, r.next(256))
			s.record(from, scriptMsg(round, r.next(256)))
		case opFlood:
			round := scriptRound(s.want.floor, r.next(256))
			m := scriptMsg(round, r.next(256))
			pattern, count := r.next(256), r.next(sys.n+1)
			for p := 1; p <= count; p++ {
				if m.V.Valid() {
					m.V = types.Value(pattern >> (p % 8) & 1)
				}
				s.record(types.ProcessID(p), m)
			}
		case opPrune:
			s.prune(scriptPrune(s.want.floor, r.next(256)))
		case opJustified:
			m := scriptMsg(scriptRound(s.want.floor, r.next(256)), r.next(256))
			got, want := s.got.Justified(m), s.want.Justified(m)
			if got != want {
				s.fail("Justified(%v) = %v, map validator %v", m, got, want)
			}
			if s.fresh != nil {
				if fresh := s.fresh.Justified(m); got != fresh {
					s.fail("Justified(%v) = %v, fresh validator %v", m, got, fresh)
				}
			}
			s.compare()
		}
	}
	return s.got
}

// scriptWriter builds a named script, tracking the floor the way
// runValidatorScript does so rounds and floors can be named absolutely.
type scriptWriter struct {
	data  []byte
	floor int
}

// newValidatorScript starts a script on scriptSpecs[spec].
func newValidatorScript(spec int, lax bool) *scriptWriter {
	sel := spec
	if lax {
		sel += len(scriptSpecs)
	}
	return &scriptWriter{data: []byte{byte(sel)}}
}

// roundByte encodes round r, which must lie from three below max(floor, 1)
// to eight above it.
func (w *scriptWriter) roundByte(r int) byte {
	x := r - max(w.floor, 1) + 3
	if x < 0 || x >= 12 {
		panic(fmt.Sprintf("round %d out of reach of floor %d", r, w.floor))
	}
	return byte(x)
}

// msgByte encodes a well-formed message shape.
func msgByte(step types.Step, v types.Value, d bool) byte {
	b := int(step) - 1 + 3*int(v)
	if d {
		b += 6
	}
	return byte(b)
}

// record appends a Record from sender palette index si.
func (w *scriptWriter) record(si, r int, step types.Step, v types.Value, d bool) *scriptWriter {
	return w.recordRaw(si, w.roundByte(r), msgByte(step, v, d))
}

// recordRaw appends a Record with raw round and message bytes.
func (w *scriptWriter) recordRaw(si int, round, msg byte) *scriptWriter {
	w.data = append(w.data, opRecord, byte(si), round, msg)
	return w
}

// flood appends senders 1..count sending step in round r, values by pattern.
func (w *scriptWriter) flood(r int, step types.Step, d bool, pattern byte, count int) *scriptWriter {
	w.data = append(w.data, opFlood, w.roundByte(r), msgByte(step, 0, d), pattern, byte(count))
	return w
}

// round floods all of round r from senders 1..n with the given pattern,
// D(v) at step 3.
func (w *scriptWriter) round(r int, pattern byte, n int) *scriptWriter {
	return w.flood(r, types.Step1, false, pattern, n).
		flood(r, types.Step2, false, pattern, n).
		flood(r, types.Step3, true, pattern, n)
}

// prune appends a PruneBelow whose target byte is x.
func (w *scriptWriter) prune(x byte) *scriptWriter {
	w.data = append(w.data, opPrune, x)
	if f := scriptPrune(w.floor, int(x)); f > w.floor {
		w.floor = f
	}
	return w
}

// pruneTo appends PruneBelow(r) for r from one below the floor to four
// above it.
func (w *scriptWriter) pruneTo(r int) *scriptWriter {
	x := r - w.floor + 1
	if x < 0 || x >= 6 {
		panic(fmt.Sprintf("floor %d out of reach of floor %d", r, w.floor))
	}
	return w.prune(byte(x))
}

func (w *scriptWriter) justified(r int, step types.Step, v types.Value, d bool) *scriptWriter {
	w.data = append(w.data, opJustified, w.roundByte(r), msgByte(step, v, d))
	return w
}

// validatorCases are the named scripts, checked in as
// FuzzValidatorMatchesMap's seed corpus.
func validatorCases() map[string][]byte {
	cases := map[string][]byte{}
	const n4, n7, n16, n65 = 0, 1, 2, 4             // scriptSpecs indices
	outsider := func(n, i int) int { return n + i } // palette index of scriptOutsiders(n)[i]
	peer := func(p int) int { return p - 1 }        // palette index of peer p

	// Clean unanimous rounds under the core's floor discipline (entering
	// round r prunes below r−1), then stragglers for pruned rounds.
	w := newValidatorScript(n4, false)
	for r := 1; r <= 8; r++ {
		w.round(r, 0xff, 4).pruneTo(r)
	}
	w.record(peer(3), 6, types.Step1, types.Zero, false).record(peer(3), 6, types.Step1, types.Zero, false).
		record(peer(3), 7, types.Step2, types.One, false).justified(6, types.Step2, types.One, false)
	cases["clean-rounds-stragglers"] = w.data

	// Split rounds: the coin path justifies both values next round.
	w = newValidatorScript(n7, false)
	for r := 1; r <= 5; r++ {
		w.flood(r, types.Step1, false, 0x5a, 7).flood(r, types.Step2, false, 0x5a, 7).
			flood(r, types.Step3, false, 0x5a, 7).justified(r+1, types.Step1, types.One, false).
			pruneTo(r)
	}
	cases["split-coin-rounds"] = w.data

	// Duplicates and equivocation in the ring, in the overflow and below
	// the floor (where nothing is deduplicated and a pending key takes the
	// newer message).
	w = newValidatorScript(n4, false)
	w.record(peer(1), 2, types.Step2, types.One, false).record(peer(1), 2, types.Step2, types.Zero, false).
		record(peer(1), 7, types.Step2, types.One, false).record(peer(1), 7, types.Step2, types.One, false).
		pruneTo(1).pruneTo(3). // the round-2 key is released, the round-7 key enters the ring
		record(peer(1), 2, types.Step2, types.Zero, false).record(peer(1), 2, types.Step2, types.One, false).
		record(peer(1), 7, types.Step3, types.One, true).record(peer(1), 7, types.Step3, types.One, true).
		round(1, 0, 4).round(2, 0, 4)
	cases["duplicates"] = w.data

	// Senders 0, N+1, N+2, huge and negative at n=65 (two bitset words):
	// they overflow as non-peers, then the floor moves past them.
	w = newValidatorScript(n65, false)
	for i := range 6 {
		w.record(outsider(65, i), 1, types.Step1, types.One, false).
			record(outsider(65, i), 3, types.Step2, types.Zero, false)
	}
	w.record(peer(65), 1, types.Step1, types.Zero, false).record(peer(64), 1, types.Step1, types.Zero, false).
		flood(1, types.Step1, false, 0, 65).flood(1, types.Step2, false, 0, 65).
		pruneTo(2).pruneTo(4).prune(170)
	cases["outsider-senders"] = w.data

	// Far-future rounds near 1<<30 from a Byzantine sender: digests and
	// seen keys overflow; then the floor jumps up there and back-fills the
	// ring from the overflow map.
	w = newValidatorScript(n4, false)
	for x := byte(240); x < 248; x++ {
		w.recordRaw(peer(2), x, msgByte(types.Step2, types.One, false)).
			recordRaw(peer(3), x, msgByte(types.Step1, types.Zero, false))
	}
	w.round(1, 0, 4).prune(241).
		recordRaw(peer(1), 240, msgByte(types.Step2, types.One, false)).
		record(peer(1), w.floor+1, types.Step3, types.One, true).
		round(w.floor, 0xff, 4).round(w.floor+1, 0xff, 4)
	cases["far-future"] = w.data

	// Digest slice growth: rounds just inside and just past roundsAhead, out
	// of order, so overflow digests move into the slice as it reaches them.
	w = newValidatorScript(n4, false)
	w.justified(9, types.Step2, types.Zero, false).justified(6, types.Step2, types.Zero, false).
		justified(5, types.Step3, types.Zero, true).record(peer(2), 9, types.Step1, types.One, false).
		round(1, 0, 4).round(2, 0, 4).round(3, 0, 4).justified(9, types.Step1, types.Zero, false)
	cases["digest-growth"] = w.data

	// Floors that jump past the ring, one and two spans at a time, with
	// traffic in every span.
	w = newValidatorScript(n16, false)
	for j := range 4 {
		lo := max(w.floor, 1)
		w.flood(lo, types.Step1, false, 0, 16).flood(lo+3, types.Step2, false, 0, 16).
			flood(lo+5, types.Step1, false, 0, 16).prune(byte(160 + 2*j))
	}
	cases["floor-jumps"] = w.data

	// Malformed shapes and rounds 0 and −1, mixed with valid traffic.
	w = newValidatorScript(n4, false)
	for b := byte(240); b < 244; b++ {
		w.recordRaw(peer(1), w.roundByte(1), b)
	}
	w.recordRaw(peer(1), 244, msgByte(types.Step1, types.One, false)).
		recordRaw(peer(1), 245, msgByte(types.Step1, types.One, false)).
		round(1, 0, 4)
	cases["malformed"] = w.data

	// The lax ablation: everything well-formed folds at once.
	w = newValidatorScript(n4, true)
	w.record(peer(1), 6, types.Step3, types.One, true).recordRaw(peer(2), 240, msgByte(types.Step2, types.Zero, false)).
		round(1, 0x0f, 4).prune(170)
	cases["lax"] = w.data
	return cases
}

func TestValidatorMatchesMap(t *testing.T) {
	for name, data := range validatorCases() {
		runValidatorScript(t, name, data)
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+rng.Intn(400))
		rng.Read(data)
		runValidatorScript(t, fmt.Sprintf("random-%d", trial), data)
	}
}

// TestRearmedValidatorMatchesFresh re-arms a validator that ran one script
// and drives a second: every fold (in order), answer and counter must equal
// a freshly built validator's and the map validator's. The pairs are every
// named case after every named case (the second under the first's spec
// byte), then 300 random scripts split in two.
func TestRearmedValidatorMatchesFresh(t *testing.T) {
	cases := validatorCases()
	names := slices.Sorted(maps.Keys(cases))
	for _, a := range names {
		for _, b := range names {
			first, second := cases[a], cases[b]
			v := driveValidatorScript(t, a, first, nil)
			driveValidatorScript(t, a+"/then/"+b, append(first[:1:1], second[1:]...), v)
		}
	}
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+rng.Intn(400))
		rng.Read(data)
		runRearmedValidatorScript(t, fmt.Sprintf("random-%d", trial), data)
	}
}

// TestValidatorCorpusCurrent: the checked-in seed corpus is the named cases'
// bytes, so an edited case cannot leave a stale seed behind.
func TestValidatorCorpusCurrent(t *testing.T) {
	for name, data := range validatorCases() {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzValidatorMatchesMap", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(data)); string(raw) != want {
			t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, want)
		}
	}
}

// FuzzValidatorMatchesMap runs each input as one script on a new
// validator, then split in two halves across a re-arm.
func FuzzValidatorMatchesMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runValidatorScript(t, "fuzz", data)
		runRearmedValidatorScript(t, "fuzz", data)
	})
}
