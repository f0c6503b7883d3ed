package types

import (
	"fmt"
	"testing"
)

func TestProcessID(t *testing.T) {
	tests := []struct {
		name string
		id   ProcessID
		str  string
	}{
		{name: "zero is invalid", id: 0, str: "p0"},
		{name: "one is valid", id: 1, str: "p1"},
		{name: "large is valid", id: 1024, str: "p1024"},
		{name: "negative is invalid", id: -3, str: "p-3"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.id.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
		})
	}
}

func TestValue(t *testing.T) {
	if !Zero.Valid() || !One.Valid() {
		t.Fatal("binary values must be valid")
	}
	if Value(2).Valid() {
		t.Fatal("2 must be invalid")
	}
	if Zero.Not() != One || One.Not() != Zero {
		t.Fatal("Not must swap the binary values")
	}
	if Zero.String() != "0" || One.String() != "1" {
		t.Fatal("unexpected Value strings")
	}
}

func TestStep(t *testing.T) {
	for _, s := range []Step{Step1, Step2, Step3} {
		if !s.Valid() {
			t.Errorf("%v must be valid", s)
		}
	}
	for _, s := range []Step{0, 4, -1} {
		if s.Valid() {
			t.Errorf("%v must be invalid", s)
		}
	}
	if Step2.String() != "S2" {
		t.Errorf("Step2.String() = %q", Step2.String())
	}
}

func TestKindStrings(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindRBCSend, "RBC-SEND"},
		{KindRBCEcho, "RBC-ECHO"},
		{KindRBCReady, "RBC-READY"},
		{KindCoinShare, "COIN"},
		{KindDecide, "DECIDE"},
		{KindPlain, "PLAIN"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
	if Kind(0).Valid() || Kind(200).Valid() {
		t.Error("out-of-range kinds must be invalid")
	}
	if !KindDecide.Valid() {
		t.Error("KindDecide must be valid")
	}
}

func TestPayloadKinds(t *testing.T) {
	tests := []struct {
		name string
		p    Payload
		want Kind
	}{
		{"send", &RBCPayload{Phase: KindRBCSend}, KindRBCSend},
		{"echo", &RBCPayload{Phase: KindRBCEcho}, KindRBCEcho},
		{"ready", &RBCPayload{Phase: KindRBCReady}, KindRBCReady},
		{"coin", &CoinSharePayload{Round: 3}, KindCoinShare},
		{"decide", &DecidePayload{V: One}, KindDecide},
		{"plain", &PlainPayload{Round: 1, Step: Step1}, KindPlain},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Kind(); got != tt.want {
				t.Errorf("Kind() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTagString(t *testing.T) {
	tag := Tag{Round: 2, Step: Step3}
	if got := tag.String(); got != "r2/S3" {
		t.Errorf("Tag.String() = %q, want %q", got, "r2/S3")
	}
	seq := Tag{Seq: 7}
	if got := seq.String(); got != "seq7" {
		t.Errorf("Tag.String() = %q, want %q", got, "seq7")
	}
}

func TestInstanceIDString(t *testing.T) {
	id := InstanceID{Sender: 4, Tag: Tag{Round: 1, Step: Step1}}
	if got := id.String(); got != "p4@r1/S1" {
		t.Errorf("InstanceID.String() = %q", got)
	}
}

func TestBroadcast(t *testing.T) {
	dests := Processes(4)
	p := &DecidePayload{V: One}
	msgs := Broadcast(2, dests, p)
	if len(msgs) != 4 {
		t.Fatalf("got %d messages, want 4", len(msgs))
	}
	for i, m := range msgs {
		if m.From != 2 {
			t.Errorf("msg %d From = %v, want p2", i, m.From)
		}
		if m.To != ProcessID(i+1) {
			t.Errorf("msg %d To = %v, want %v", i, m.To, ProcessID(i+1))
		}
		if m.Payload != p {
			t.Errorf("msg %d payload not preserved", i)
		}
	}
}

func TestBroadcastEmpty(t *testing.T) {
	msgs := Broadcast(1, nil, &DecidePayload{})
	if len(msgs) != 0 {
		t.Fatalf("got %d messages, want 0", len(msgs))
	}
}

func TestProcesses(t *testing.T) {
	ps := Processes(3)
	want := []ProcessID{1, 2, 3}
	if len(ps) != len(want) {
		t.Fatalf("got %d processes, want %d", len(ps), len(want))
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("ps[%d] = %v, want %v", i, ps[i], want[i])
		}
	}
	if got := Processes(0); len(got) != 0 {
		t.Errorf("Processes(0) = %v, want empty", got)
	}
}

func TestStepMessageString(t *testing.T) {
	m := StepMessage{Round: 5, Step: Step3, V: One, D: true}
	if got := m.String(); got != "r5/S3 D(1)" {
		t.Errorf("String() = %q", got)
	}
	plain := StepMessage{Round: 1, Step: Step1, V: Zero}
	if got := plain.String(); got != "r1/S1 (0)" {
		t.Errorf("String() = %q", got)
	}
}

func TestMessageString(t *testing.T) {
	m := Message{From: 1, To: 2, Payload: &DecidePayload{V: Zero}}
	if got := m.String(); got != "p1->p2 DECIDE[0]" {
		t.Errorf("String() = %q", got)
	}
}

func TestPayloadStrings(t *testing.T) {
	tests := []struct {
		p    Payload
		want string
	}{
		{&RBCPayload{Phase: KindRBCSend, ID: InstanceID{Sender: 2, Tag: Tag{Round: 1, Step: Step1}}, Body: "x"}, `RBC-SEND[p2@r1/S1|"x"]`},
		{&CoinSharePayload{Round: 4}, "COIN[r4]"},
		{&DecidePayload{V: One}, "DECIDE[1]"},
		{&DecidePayload{V: Zero, Instance: 3}, "DECIDE[0#3]"},
		{&PlainPayload{Round: 2, Step: Step2, V: One, D: true}, "PLAIN[r2/S2 v=1*D]"},
		{&PlainPayload{Round: 1, Step: Step2, V: Zero, Q: true}, "PLAIN[r1/S2 v=0*?]"},
		{&PlainPayload{Round: 1, Step: Step1, V: Zero}, "PLAIN[r1/S1 v=0]"},
	}
	for _, tt := range tests {
		if got := fmt.Sprint(tt.p); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestRoute(t *testing.T) {
	const ns = 100
	id := func(seq int) InstanceID { return InstanceID{Sender: 2, Tag: Tag{Seq: seq}} }
	tests := []struct {
		p     Payload
		inst  int
		plane Plane
	}{
		{&RBCPayload{ID: id(ns + 3)}, 3, PlaneValues},
		{&RBCFragPayload{ID: id(ns)}, 0, PlaneValues},
		{&RBCSumPayload{ID: id(ns - 1)}, ns - 1, PlaneBinary},
		{&RBCPayload{ID: id(-4)}, -4, PlaneBinary},
		{&DecidePayload{V: One, Instance: 7}, 7, PlaneBinary},
		{&DecidePayload{Instance: -1}, -1, PlaneBinary},
		{&CoinSharePayload{Round: 2}, 0, PlaneCoin},
		{&CkptVotePayload{Slot: 8}, 0, PlaneCkpt},
		{&CkptRequestPayload{Slot: 8}, 0, PlaneCkpt},
		{&CkptCertPayload{}, 0, PlaneCkpt},
		{&PlainPayload{Round: 1}, 0, 0},
		{nil, 0, 0},
	}
	for _, tt := range tests {
		if inst, plane := Route(tt.p, ns); inst != tt.inst || plane != tt.plane {
			t.Errorf("Route(%v) = %d/%d, want %d/%d", tt.p, inst, plane, tt.inst, tt.plane)
		}
	}
}
