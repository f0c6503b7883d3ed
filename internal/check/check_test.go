package check

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func props(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Property
	}
	return out
}

func hasProp(vs []Violation, p string) bool {
	for _, v := range vs {
		if v.Property == p {
			return true
		}
	}
	return false
}

func TestConsensusClean(t *testing.T) {
	obs := ConsensusObservation{
		Correct:   types.Processes(3),
		Proposals: map[types.ProcessID]types.Value{1: 0, 2: 1, 3: 1},
		Decisions: map[types.ProcessID][]types.Value{1: {1}, 2: {1}, 3: {1}},
		Quiesced:  true,
	}
	if vs := Consensus(obs); len(vs) != 0 {
		t.Errorf("clean run reported violations: %v", vs)
	}
}

func TestConsensusViolations(t *testing.T) {
	tests := []struct {
		name string
		obs  ConsensusObservation
		want []string
	}{
		{
			name: "agreement broken",
			obs: ConsensusObservation{
				Correct:   types.Processes(2),
				Proposals: map[types.ProcessID]types.Value{1: 0, 2: 1},
				Decisions: map[types.ProcessID][]types.Value{1: {0}, 2: {1}},
			},
			want: []string{PropAgreement},
		},
		{
			name: "validity broken: unanimous proposals overridden",
			obs: ConsensusObservation{
				Correct:   types.Processes(2),
				Proposals: map[types.ProcessID]types.Value{1: 0, 2: 0},
				Decisions: map[types.ProcessID][]types.Value{1: {1}, 2: {1}},
			},
			want: []string{PropValidity},
		},
		{
			name: "integrity broken: double decide",
			obs: ConsensusObservation{
				Correct:   types.Processes(1),
				Proposals: map[types.ProcessID]types.Value{1: 1},
				Decisions: map[types.ProcessID][]types.Value{1: {1, 1}},
			},
			want: []string{PropIntegrity},
		},
		{
			name: "termination broken on quiesced run",
			obs: ConsensusObservation{
				Correct:   types.Processes(2),
				Proposals: map[types.ProcessID]types.Value{1: 1, 2: 1},
				Decisions: map[types.ProcessID][]types.Value{1: {1}},
				Quiesced:  true,
			},
			want: []string{PropTermination},
		},
		{
			name: "no termination check while running",
			obs: ConsensusObservation{
				Correct:   types.Processes(2),
				Proposals: map[types.ProcessID]types.Value{1: 1, 2: 1},
				Decisions: map[types.ProcessID][]types.Value{},
				Quiesced:  false,
			},
			want: nil,
		},
		{
			name: "multiple violations at once",
			obs: ConsensusObservation{
				Correct:   types.Processes(3),
				Proposals: map[types.ProcessID]types.Value{1: 0, 2: 0, 3: 0},
				Decisions: map[types.ProcessID][]types.Value{1: {0, 1}, 2: {1}, 3: {0}},
				Quiesced:  true,
			},
			want: []string{PropIntegrity, PropAgreement, PropValidity},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			vs := Consensus(tt.obs)
			for _, want := range tt.want {
				if !hasProp(vs, want) {
					t.Errorf("missing %q in %v", want, props(vs))
				}
			}
			if len(tt.want) == 0 && len(vs) != 0 {
				t.Errorf("unexpected violations: %v", vs)
			}
		})
	}
}

// TestConsensusValidityOrder: when both decided values went unproposed
// (proposals outside {0, 1}), the two validity violations come out 0 then
// 1, identically on every call.
func TestConsensusValidityOrder(t *testing.T) {
	obs := ConsensusObservation{
		Correct:   types.Processes(4),
		Proposals: map[types.ProcessID]types.Value{1: 2, 2: 3, 3: 2, 4: 3},
		Decisions: map[types.ProcessID][]types.Value{1: {1}, 2: {0}, 3: {1}, 4: {0}},
	}
	want := Render([]Violation{
		{Property: PropAgreement, Detail: "conflicting decisions: 0<-[p2 p4] vs 1<-[p1 p3]"},
		{Property: PropValidity, Detail: "value 0 decided by [p2 p4] but proposed by no correct process"},
		{Property: PropValidity, Detail: "value 1 decided by [p1 p3] but proposed by no correct process"},
	})
	for i := 0; i < 50; i++ {
		if got := Render(Consensus(obs)); got != want {
			t.Fatalf("call %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestRBCClean(t *testing.T) {
	obs := RBCObservation{
		Correct:       types.Processes(3),
		SenderCorrect: true,
		Broadcast:     "m",
		Delivered:     map[types.ProcessID][]string{1: {"m"}, 2: {"m"}, 3: {"m"}},
		Quiesced:      true,
	}
	if vs := RBC(obs); len(vs) != 0 {
		t.Errorf("clean RBC reported violations: %v", vs)
	}
}

func TestRBCByzantineSenderSilence(t *testing.T) {
	// A Byzantine sender that causes no delivery violates nothing.
	obs := RBCObservation{
		Correct:       types.Processes(3),
		SenderCorrect: false,
		Delivered:     map[types.ProcessID][]string{},
		Quiesced:      true,
	}
	if vs := RBC(obs); len(vs) != 0 {
		t.Errorf("silent Byzantine instance reported violations: %v", vs)
	}
}

func TestRBCViolations(t *testing.T) {
	tests := []struct {
		name string
		obs  RBCObservation
		want []string
	}{
		{
			name: "agreement broken: split deliveries",
			obs: RBCObservation{
				Correct:   types.Processes(2),
				Delivered: map[types.ProcessID][]string{1: {"a"}, 2: {"b"}},
				Quiesced:  true,
			},
			want: []string{PropRBCAgreement},
		},
		{
			name: "integrity broken: double delivery",
			obs: RBCObservation{
				Correct:   types.Processes(1),
				Delivered: map[types.ProcessID][]string{1: {"a", "a"}},
			},
			want: []string{PropRBCIntegrity},
		},
		{
			name: "integrity broken: wrong body from correct sender",
			obs: RBCObservation{
				Correct:       types.Processes(1),
				SenderCorrect: true,
				Broadcast:     "m",
				Delivered:     map[types.ProcessID][]string{1: {"x"}},
			},
			want: []string{PropRBCIntegrity},
		},
		{
			name: "validity broken: correct sender, no delivery",
			obs: RBCObservation{
				Correct:       types.Processes(2),
				SenderCorrect: true,
				Broadcast:     "m",
				Delivered:     map[types.ProcessID][]string{},
				Quiesced:      true,
			},
			want: []string{PropRBCValidity},
		},
		{
			name: "totality broken: one delivered, one did not",
			obs: RBCObservation{
				Correct:   types.Processes(2),
				Delivered: map[types.ProcessID][]string{1: {"a"}},
				Quiesced:  true,
			},
			want: []string{PropRBCTotality},
		},
		{
			name: "no liveness checks before quiescence",
			obs: RBCObservation{
				Correct:       types.Processes(2),
				SenderCorrect: true,
				Broadcast:     "m",
				Delivered:     map[types.ProcessID][]string{1: {"m"}},
				Quiesced:      false,
			},
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			vs := RBC(tt.obs)
			for _, want := range tt.want {
				if !hasProp(vs, want) {
					t.Errorf("missing %q in %v", want, props(vs))
				}
			}
			if len(tt.want) == 0 && len(vs) != 0 {
				t.Errorf("unexpected violations: %v", vs)
			}
		})
	}
}

func TestRender(t *testing.T) {
	if Render(nil) != "none" {
		t.Errorf("Render(nil) = %q", Render(nil))
	}
	vs := []Violation{{Property: "a", Detail: "x"}, {Property: "b", Detail: "y"}}
	got := Render(vs)
	if !strings.Contains(got, "a: x") || !strings.Contains(got, "b: y") {
		t.Errorf("Render = %q", got)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Property: PropAgreement, Detail: "boom"}
	if v.String() != "agreement: boom" {
		t.Errorf("String() = %q", v.String())
	}
}

func TestTally(t *testing.T) {
	var tl Tally
	if !tl.Clean() {
		t.Fatal("zero tally not clean")
	}
	tl.Observe(1, nil)
	tl.Observe(2, []Violation{{Property: PropAgreement, Detail: "x"}})
	tl.Observe(3, []Violation{
		{Property: PropAgreement, Detail: "y"},
		{Property: PropValidity, Detail: "z"},
	})
	if tl.Runs != 3 || tl.ViolatedRuns != 2 || tl.Violations != 3 {
		t.Errorf("tally = %+v", tl)
	}
	if tl.ByProperty[PropAgreement] != 2 || tl.ByProperty[PropValidity] != 1 {
		t.Errorf("by-property = %v", tl.ByProperty)
	}
	if len(tl.SampleSeeds) != 2 || tl.SampleSeeds[0] != 2 || tl.SampleSeeds[1] != 3 {
		t.Errorf("sample seeds = %v", tl.SampleSeeds)
	}
	if tl.Clean() {
		t.Error("violated tally reported clean")
	}
	s := tl.String()
	for _, want := range []string{"2/3 runs violated", "agreement=2", "validity=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestTallySampleSeedsBounded(t *testing.T) {
	var tl Tally
	for seed := int64(0); seed < 100; seed++ {
		tl.Observe(seed, []Violation{{Property: PropTermination, Detail: "late"}})
	}
	if len(tl.SampleSeeds) != maxSampleSeeds {
		t.Errorf("retained %d seeds, want %d", len(tl.SampleSeeds), maxSampleSeeds)
	}
}
