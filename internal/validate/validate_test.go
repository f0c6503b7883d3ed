package validate

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

func sm(round int, step types.Step, v types.Value) types.StepMessage {
	return types.StepMessage{Round: round, Step: step, V: v}
}

func dm(round int, v types.Value) types.StepMessage {
	return types.StepMessage{Round: round, Step: types.Step3, V: v, D: true}
}

// record feeds messages from consecutive senders starting at `from`,
// asserting each is newly recorded (tallied or pending).
func record(t *testing.T, v *Validator, from int, msgs ...types.StepMessage) {
	t.Helper()
	for i, m := range msgs {
		before := v.Tallied() + v.Pending()
		v.Record(types.ProcessID(from+i), m)
		if v.Tallied()+v.Pending() != before+1 {
			t.Fatalf("Record(%v from p%d) not recorded", m, from+i)
		}
	}
}

func TestRoundOneStepOneAlwaysJustified(t *testing.T) {
	v := New(quorum.MustNew(4, 1))
	if !v.Justified(sm(1, types.Step1, types.Zero)) || !v.Justified(sm(1, types.Step1, types.One)) {
		t.Fatal("round-1 step-1 values must be justified unconditionally")
	}
}

func TestMalformedNeverJustified(t *testing.T) {
	v := New(quorum.MustNew(4, 1))
	tests := []types.StepMessage{
		{Round: 0, Step: types.Step1, V: types.One},           // round 0
		{Round: 1, Step: 0, V: types.One},                     // bad step
		{Round: 1, Step: types.Step1, V: 5},                   // bad value
		{Round: 1, Step: types.Step1, V: types.One, D: true},  // D outside step 3
		{Round: 1, Step: types.Step2, V: types.Zero, D: true}, // D outside step 3
	}
	for _, m := range tests {
		if v.Justified(m) {
			t.Errorf("malformed %v justified", m)
		}
		v.Record(9, m)
		if v.Tallied()+v.Pending() != 0 {
			t.Errorf("malformed %v recorded", m)
		}
	}
}

func TestStepTwoMajority(t *testing.T) {
	// n=4, f=1, q=3. Step-1 tallies decide which step-2 values are
	// justifiable as "majority of some 3-subset".
	tests := []struct {
		name         string
		step1        []types.Value
		want0, want1 bool
	}{
		{"unanimous one", []types.Value{1, 1, 1}, false, true},
		{"two one one zero", []types.Value{1, 1, 0}, false, true}, // 0 can get at most 1-of-3
		{"two zero one one", []types.Value{0, 0, 1}, true, false},
		{"split two-two", []types.Value{1, 1, 0, 0}, true, true}, // {0,0,1} majors 0; {1,1,0} majors 1
		{"insufficient", []types.Value{1, 1}, false, false},      // fewer than q step-1 messages
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := New(quorum.MustNew(4, 1))
			for i, val := range tt.step1 {
				record(t, v, i+1, sm(1, types.Step1, val))
			}
			if got := v.Justified(sm(1, types.Step2, types.Zero)); got != tt.want0 {
				t.Errorf("Justified(step2, 0) = %v, want %v", got, tt.want0)
			}
			if got := v.Justified(sm(1, types.Step2, types.One)); got != tt.want1 {
				t.Errorf("Justified(step2, 1) = %v, want %v", got, tt.want1)
			}
		})
	}
}

func TestStepTwoTieBreaksToZero(t *testing.T) {
	// n=5, f=1, q=4: a 2-2 subset ties; ties go to 0, so 0 is justifiable
	// and 1 is not (1 would need a strict majority: 3 of 4).
	v := New(quorum.MustNew(5, 1))
	record(t, v, 1,
		sm(1, types.Step1, types.One), sm(1, types.Step1, types.One),
		sm(1, types.Step1, types.Zero), sm(1, types.Step1, types.Zero))
	if !v.Justified(sm(1, types.Step2, types.Zero)) {
		t.Error("tie must justify 0")
	}
	if v.Justified(sm(1, types.Step2, types.One)) {
		t.Error("tie must not justify 1 (needs strict majority)")
	}
}

func TestStepThreeDecisionProposal(t *testing.T) {
	// n=4: sm=3. D(v) needs a 3-subset of step-2 messages with ≥3 v's.
	v := New(quorum.MustNew(4, 1))
	// Build justified step-1 (all 1) then step-2 (all 1).
	record(t, v, 1, sm(1, types.Step1, 1), sm(1, types.Step1, 1), sm(1, types.Step1, 1))
	record(t, v, 1, sm(1, types.Step2, 1), sm(1, types.Step2, 1), sm(1, types.Step2, 1))
	if !v.Justified(dm(1, types.One)) {
		t.Error("D(1) must be justified after unanimous step 2")
	}
	if v.Justified(dm(1, types.Zero)) {
		t.Error("D(0) must not be justified")
	}
	// With unanimous step-2, a plain step-3 is NOT justifiable: every
	// 3-subset has a supermajority.
	if v.Justified(sm(1, types.Step3, types.One)) {
		t.Error("plain step-3 must not be justified when every subset has a supermajority")
	}
}

func TestStepThreePlain(t *testing.T) {
	// n=4, step-2 tallies [1,2]: subsets without a supermajority exist, so
	// plain values are justified if their step-2 majority was possible.
	v := New(quorum.MustNew(4, 1))
	record(t, v, 1, sm(1, types.Step1, 1), sm(1, types.Step1, 1), sm(1, types.Step1, 0), sm(1, types.Step1, 0))
	record(t, v, 1, sm(1, types.Step2, 0), sm(1, types.Step2, 1), sm(1, types.Step2, 1))
	if !v.Justified(sm(1, types.Step3, types.One)) {
		t.Error("plain 1 must be justified (no-supermajority subset exists, majority-1 possible)")
	}
	if !v.Justified(sm(1, types.Step3, types.Zero)) {
		t.Error("plain 0 must be justified")
	}
	// But D(1) is also justifiable here? c2[1]=2 < sm=3: no.
	if v.Justified(dm(1, types.One)) {
		t.Error("D(1) must not be justified with only 2 step-2 ones")
	}
}

func TestNextRoundAdoption(t *testing.T) {
	// Unanimous round: only the unanimous value may enter round 2.
	v := New(quorum.MustNew(4, 1))
	record(t, v, 1, sm(1, types.Step1, 1), sm(1, types.Step1, 1), sm(1, types.Step1, 1))
	record(t, v, 1, sm(1, types.Step2, 1), sm(1, types.Step2, 1), sm(1, types.Step2, 1))
	record(t, v, 1, dm(1, 1), dm(1, 1), dm(1, 1))
	if !v.Justified(sm(2, types.Step1, types.One)) {
		t.Error("adopting the unanimous value in round 2 must be justified")
	}
	if v.Justified(sm(2, types.Step1, types.Zero)) {
		t.Error("the opposite value must not enter round 2 after unanimity")
	}
}

func TestNextRoundCoinFallback(t *testing.T) {
	// A split round where every correct process fell to the coin: both
	// values are legitimate in the next round.
	v := New(quorum.MustNew(4, 1))
	record(t, v, 1, sm(1, types.Step1, 1), sm(1, types.Step1, 1), sm(1, types.Step1, 0), sm(1, types.Step1, 0))
	record(t, v, 1, sm(1, types.Step2, 0), sm(1, types.Step2, 1), sm(1, types.Step2, 1))
	record(t, v, 1, sm(1, types.Step3, 1), sm(1, types.Step3, 0), sm(1, types.Step3, 1))
	for _, val := range []types.Value{types.Zero, types.One} {
		if !v.Justified(sm(2, types.Step1, val)) {
			t.Errorf("coin fallback must justify value %v in round 2", val)
		}
	}
}

// TestRecursiveGating is the heart of validation: unjustified Byzantine
// messages must not be counted when judging other messages, otherwise a
// Byzantine process can fake a "coin was possible" situation and re-inject a
// dead value into the next round (breaking the unanimity-preservation that
// drives termination).
func TestRecursiveGating(t *testing.T) {
	v := New(quorum.MustNew(4, 1))
	// Byzantine p4 front-runs with step-3 garbage for round 1: a plain 0,
	// recorded but unjustifiable.
	v.Record(4, sm(1, types.Step3, types.Zero))
	if v.Pending() != 1 {
		t.Fatal("recording Byzantine message failed")
	}
	// Correct unanimous round 1 with value 1 completes.
	record(t, v, 1, sm(1, types.Step1, 1), sm(1, types.Step1, 1), sm(1, types.Step1, 1))
	record(t, v, 1, sm(1, types.Step2, 1), sm(1, types.Step2, 1), sm(1, types.Step2, 1))
	record(t, v, 1, dm(1, 1), dm(1, 1), dm(1, 1))

	// p4's plain step-3 0 must still be pending: with unanimous step-2
	// tallies there is no no-supermajority subset, and majority-0 was never
	// possible.
	if v.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (the Byzantine step-3)", v.Pending())
	}
	// And crucially: 0 must not be justifiable for round 2 — the pending
	// Byzantine message must not count toward the coin-fallback check.
	if v.Justified(sm(2, types.Step1, types.Zero)) {
		t.Fatal("unjustified Byzantine message leaked into round-2 justification")
	}
	if !v.Justified(sm(2, types.Step1, types.One)) {
		t.Fatal("legitimate round-2 value rejected")
	}
}

func TestOutOfOrderCascade(t *testing.T) {
	// Messages recorded before their justification exists must fold in
	// automatically when it arrives.
	v := New(quorum.MustNew(4, 1))
	// Step-2 arrives first: pending.
	record(t, v, 1, sm(1, types.Step2, 1))
	if v.Pending() != 1 || v.Tallied() != 0 {
		t.Fatalf("pending/tallied = %d/%d, want 1/0", v.Pending(), v.Tallied())
	}
	// Step-1 quorum arrives: both the step-1 messages and the waiting
	// step-2 fold in one drain.
	record(t, v, 2, sm(1, types.Step1, 1), sm(1, types.Step1, 1), sm(1, types.Step1, 1))
	if v.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0 after cascade", v.Pending())
	}
	if v.Tallied() != 4 {
		t.Fatalf("Tallied = %d, want 4", v.Tallied())
	}
}

func TestDuplicateSlotRejected(t *testing.T) {
	v := New(quorum.MustNew(4, 1))
	folded := v.Record(1, sm(1, types.Step1, 1))
	if len(folded) != 1 || folded[0].Sender != 1 {
		t.Fatalf("first record folded %v, want one acceptance from p1", folded)
	}
	v.Record(1, sm(1, types.Step1, 0))
	if v.Tallied()+v.Pending() != 1 {
		t.Fatal("second message from the same sender for the same slot accepted")
	}
	// Different slot from the same sender is fine.
	record(t, v, 1, sm(1, types.Step2, 1))
}

// TestNonPeerSenderDropped: only peers reach the validator. At n=4, round-1
// step-1 messages from p9, p10 and p11 fold nothing, where a validator
// without the door accepts all three; on a fresh validator, 1 000 step-1
// messages from p9 for rounds 1..1000 leave no seen entry and nothing
// pending, where one without the door keeps 1 000 seen entries and 999
// pending.
func TestNonPeerSenderDropped(t *testing.T) {
	v := New(quorum.MustNew(4, 1))
	accepted := 0
	for _, p := range []types.ProcessID{9, 10, 11} {
		accepted += len(v.Record(p, sm(1, types.Step1, types.One)))
	}
	if accepted != 0 {
		t.Errorf("round-1 step-1 messages from p9, p10, p11: %d accepted, want 0", accepted)
	}
	v = New(quorum.MustNew(4, 1))
	for r := 1; r <= 1000; r++ {
		v.Record(9, sm(r, types.Step1, types.One))
	}
	if seen, pending := v.SeenRetained(), v.Pending(); seen != 0 || pending != 0 {
		t.Errorf("1000 messages from p9: %d seen entries, %d pending; want 0 and 0", seen, pending)
	}
}

func TestJustifiedIsMonotone(t *testing.T) {
	// Once justified, always justified — across a long arbitrary feed.
	v := New(quorum.MustNew(7, 2))
	queries := []types.StepMessage{
		sm(1, types.Step2, 0), sm(1, types.Step2, 1),
		dm(1, 0), dm(1, 1),
		sm(1, types.Step3, 0), sm(1, types.Step3, 1),
		sm(2, types.Step1, 0), sm(2, types.Step1, 1),
		sm(2, types.Step2, 0), dm(2, 1),
	}
	wasJustified := make([]bool, len(queries))
	feed := []struct {
		sender int
		m      types.StepMessage
	}{
		{1, sm(1, types.Step1, 0)}, {2, sm(1, types.Step1, 1)}, {3, sm(1, types.Step1, 1)},
		{4, sm(1, types.Step1, 0)}, {5, sm(1, types.Step1, 1)}, {6, sm(1, types.Step1, 1)},
		{7, sm(1, types.Step1, 0)},
		{1, sm(1, types.Step2, 1)}, {2, sm(1, types.Step2, 1)}, {3, sm(1, types.Step2, 0)},
		{4, sm(1, types.Step2, 1)}, {5, sm(1, types.Step2, 1)}, {6, sm(1, types.Step2, 0)},
		{1, dm(1, 1)}, {2, dm(1, 1)}, {3, sm(1, types.Step3, 1)},
		{4, dm(1, 1)}, {5, dm(1, 1)}, {6, dm(1, 1)},
		{1, sm(2, types.Step1, 1)}, {2, sm(2, types.Step1, 1)},
	}
	for _, f := range feed {
		v.Record(types.ProcessID(f.sender), f.m)
		for i, qm := range queries {
			now := v.Justified(qm)
			if wasJustified[i] && !now {
				t.Fatalf("monotonicity broken for %v after feeding %v", qm, f.m)
			}
			wasJustified[i] = now
		}
	}
}

func TestCorrectUnanimousFlowJustifiesEverythingItSends(t *testing.T) {
	// Liveness sanity for n=7, f=2: everything a correct process sends in a
	// unanimous execution is justified at a validator that saw the same
	// traffic.
	v := New(quorum.MustNew(7, 2))
	for s := 1; s <= 5; s++ {
		record(t, v, s, sm(1, types.Step1, 1))
	}
	if !v.Justified(sm(1, types.Step2, 1)) {
		t.Fatal("step 2 not justified")
	}
	for s := 1; s <= 5; s++ {
		record(t, v, s, sm(1, types.Step2, 1))
	}
	if !v.Justified(dm(1, 1)) {
		t.Fatal("D(1) not justified")
	}
	for s := 1; s <= 5; s++ {
		record(t, v, s, dm(1, 1))
	}
	if !v.Justified(sm(2, types.Step1, 1)) {
		t.Fatal("round-2 adoption not justified")
	}
}

func TestByzantineCannotForgeDecisionAlone(t *testing.T) {
	// f Byzantine D(v) messages alone must never justify adopting v via the
	// D path. Setup: n=7, f=2, q=5, sm=4. A genuinely split round — three
	// 1s and three 0s at steps 1 and 2 (one Byzantine process participating
	// plausibly) — so no supermajority was ever possible and every correct
	// process coin-fell with a plain step-3 message.
	v := New(quorum.MustNew(7, 2))
	vals := []types.Value{1, 1, 1, 0, 0, 0} // senders 1..6 (p6 Byzantine but plausible)
	for s, val := range vals {
		record(t, v, s+1, sm(1, types.Step1, val))
	}
	for s, val := range vals {
		record(t, v, s+1, sm(1, types.Step2, val))
	}
	// Correct processes 1..5 coin-fell: plain step-3 messages.
	for s, val := range vals[:5] {
		record(t, v, s+1, sm(1, types.Step3, val))
	}
	// Byzantine p6, p7 inject D(0): with step-2 tallies [3,3] < sm=4, D(0)
	// is unjustifiable and must stay pending — it must not unlock the
	// "adopt 0 from f+1 D(0)" path for round 2.
	v.Record(6, dm(1, 0))
	v.Record(7, dm(1, 0))
	if got := v.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 Byzantine D-messages", got)
	}
	// Both values remain legitimate in round 2, but only via the coin path
	// (5 plain step-3 messages ≥ q), never via adoption.
	if !v.Justified(sm(2, types.Step1, types.Zero)) || !v.Justified(sm(2, types.Step1, types.One)) {
		t.Fatal("coin fallback must justify both values")
	}
	prev := v.tally(1)
	if prev.canAdopt(types.Zero, v.spec.Quorum(), v.spec.Adopt()) {
		t.Fatal("Byzantine D(0) messages leaked into the adoption tally")
	}
}

func TestStats(t *testing.T) {
	v := New(quorum.MustNew(4, 1))
	if v.Tallied() != 0 || v.Pending() != 0 {
		t.Fatal("fresh validator must be empty")
	}
	record(t, v, 1, sm(1, types.Step1, 1))
	if v.Tallied() != 1 {
		t.Fatalf("Tallied = %d, want 1", v.Tallied())
	}
}
