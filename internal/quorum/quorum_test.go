package quorum

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestNewRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		n, f int
	}{
		{"zero processes", 0, 0},
		{"negative processes", -1, 0},
		{"negative faults", 4, -1},
		{"all faulty", 4, 4},
		{"more faults than processes", 3, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.n, tt.f); !errors.Is(err, ErrInvalid) {
				t.Errorf("New(%d, %d) error = %v, want ErrInvalid", tt.n, tt.f, err)
			}
		})
	}
}

func TestThresholds(t *testing.T) {
	tests := []struct {
		n, f                                        int
		quorum, decide, adopt, super, echo, honestS int
	}{
		{4, 1, 3, 3, 2, 3, 3, 3},
		{7, 2, 5, 5, 3, 4, 5, 5},
		{10, 3, 7, 7, 4, 6, 7, 7},
		{13, 4, 9, 9, 5, 7, 9, 9},
		{16, 5, 11, 11, 6, 9, 11, 11},
		{31, 10, 21, 21, 11, 16, 21, 21},
		{5, 1, 4, 3, 2, 3, 4, 4},  // n > 3f+1: quorum exceeds decide threshold
		{9, 2, 7, 5, 3, 5, 6, 6},  // non-tight configuration
		{11, 2, 9, 5, 3, 6, 7, 7}, // Ben-Or-safe configuration (n > 5f)
	}
	for _, tt := range tests {
		s := MustNew(tt.n, tt.f)
		if got := s.Quorum(); got != tt.quorum {
			t.Errorf("(%v).Quorum() = %d, want %d", s, got, tt.quorum)
		}
		if got := s.Decide(); got != tt.decide {
			t.Errorf("(%v).Decide() = %d, want %d", s, got, tt.decide)
		}
		if got := s.Adopt(); got != tt.adopt {
			t.Errorf("(%v).Adopt() = %d, want %d", s, got, tt.adopt)
		}
		if got := s.SuperMajority(); got != tt.super {
			t.Errorf("(%v).SuperMajority() = %d, want %d", s, got, tt.super)
		}
		if got := s.Echo(); got != tt.echo {
			t.Errorf("(%v).Echo() = %d, want %d", s, got, tt.echo)
		}
		if got := s.HonestSuperMajority(); got != tt.honestS {
			t.Errorf("(%v).HonestSuperMajority() = %d, want %d", s, got, tt.honestS)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := MustNew(7, 2)
	if s.N() != 7 || s.F() != 2 {
		t.Errorf("N, F = %d, %d; want 7, 2", s.N(), s.F())
	}
	if s.String() != "n=7 f=2" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestIsOptimal(t *testing.T) {
	tests := []struct {
		n, f int
		want bool
	}{
		{4, 1, true},
		{7, 2, true},
		{3, 1, false}, // n = 3f
		{6, 2, false}, // n = 3f
		{7, 3, false}, // n < 3f+1
		{100, 33, true},
		{99, 33, false},
	}
	for _, tt := range tests {
		if got := MustNew(tt.n, tt.f).IsOptimal(); got != tt.want {
			t.Errorf("IsOptimal(n=%d, f=%d) = %v, want %v", tt.n, tt.f, got, tt.want)
		}
	}
}

func TestMaxByzantine(t *testing.T) {
	tests := []struct {
		n, want int
	}{
		{0, 0}, {1, 0}, {3, 0}, {4, 1}, {6, 1}, {7, 2}, {10, 3}, {100, 33},
	}
	for _, tt := range tests {
		if got := MaxByzantine(tt.n); got != tt.want {
			t.Errorf("MaxByzantine(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestMinProcesses(t *testing.T) {
	tests := []struct {
		f, want int
	}{
		{-1, 1}, {0, 1}, {1, 4}, {2, 7}, {3, 10},
	}
	for _, tt := range tests {
		if got := MinProcesses(tt.f); got != tt.want {
			t.Errorf("MinProcesses(%d) = %d, want %d", tt.f, got, tt.want)
		}
	}
}

func TestBenOrMaxByzantine(t *testing.T) {
	tests := []struct {
		n, want int
	}{
		{0, 0}, {5, 0}, {6, 1}, {10, 1}, {11, 2}, {16, 3},
	}
	for _, tt := range tests {
		if got := BenOrMaxByzantine(tt.n); got != tt.want {
			t.Errorf("BenOrMaxByzantine(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// boundedSpec produces a valid Spec from arbitrary fuzz input.
func boundedSpec(rawN, rawF int) Spec {
	n := 1 + abs(rawN)%200
	f := 0
	if n > 1 {
		f = abs(rawF) % n
	}
	return MustNew(n, f)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestQuorumIntersectionProperty checks the core safety fact the protocol
// relies on: any two (n−f)-quorums intersect in at least n−2f processes, and
// when n > 3f that intersection must contain a correct process.
func TestQuorumIntersectionProperty(t *testing.T) {
	prop := func(rawN, rawF int) bool {
		s := boundedSpec(rawN, rawF)
		inter := 2*s.Quorum() - s.N() // minimum overlap of two quorums
		if inter != s.N()-2*s.F() {
			return false
		}
		if s.IsOptimal() && inter <= s.F() {
			return false // intersection would be coverable by Byzantine processes
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestDecideImpliesAdoptProperty checks the agreement hand-off: if one
// process sees 2f+1 matching witnesses inside its quorum, every other
// quorum contains at least f+1 of them (the adoption threshold).
func TestDecideImpliesAdoptProperty(t *testing.T) {
	prop := func(rawN, rawF int) bool {
		s := boundedSpec(rawN, rawF)
		if !s.IsOptimal() {
			return true // the guarantee is only claimed under n > 3f
		}
		// 2f+1 witnesses; another quorum misses at most n - quorum = f of them.
		return s.Decide()-s.F() >= s.Adopt()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestEchoExclusivityProperty checks that two different bodies cannot both
// reach the RBC echo threshold: that would need Echo()*2 echo votes, but only
// n+f exist (each correct process echoes one body, Byzantine ones may echo
// both).
func TestEchoExclusivityProperty(t *testing.T) {
	prop := func(rawN, rawF int) bool {
		s := boundedSpec(rawN, rawF)
		return 2*s.Echo() > s.N()+s.F()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuorumReachableProperty checks liveness of waits: with f actually
// faulty processes silent, the n−f correct ones alone still reach every wait
// threshold a correct process uses.
func TestQuorumReachableProperty(t *testing.T) {
	prop := func(rawN, rawF int) bool {
		s := boundedSpec(rawN, rawF)
		correct := s.N() - s.F()
		if correct < s.Quorum() {
			return false
		}
		if s.IsOptimal() {
			// Echo and decide thresholds must also be reachable without
			// Byzantine help.
			return correct >= s.Echo() && correct >= s.Decide()
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSuperMajorityExclusive(t *testing.T) {
	// Two disjoint sets cannot both exceed n/2.
	prop := func(rawN, rawF int) bool {
		s := boundedSpec(rawN, rawF)
		return 2*s.SuperMajority() > s.N()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0, 0) did not panic")
		}
	}()
	MustNew(0, 0)
}

// TestMembership: the peers are exactly 1..n in order with me among them,
// and Index is p−1 on that range and refuses everything else.
func TestMembership(t *testing.T) {
	s := MustNew(4, 1)
	peers := types.Processes(4)
	for _, tc := range []struct {
		name  string
		me    types.ProcessID
		peers []types.ProcessID
		ok    bool
	}{
		{"canonical", 3, peers, true},
		{"canonical first", 1, peers, true},
		{"canonical last", 4, peers, true},
		{"duplicated", 1, []types.ProcessID{1, 2, 2, 3}, false},
		{"sparse", 3, []types.ProcessID{3, 9, 70000, 5}, false},
		{"reordered", 1, []types.ProcessID{2, 1, 3, 4}, false},
		{"short", 1, peers[:3], false},
		{"long", 1, types.Processes(5), false},
		{"me zero", 0, peers, false},
		{"me past n", 5, peers, false},
		{"me negative", -1, peers, false},
	} {
		err := s.CheckPeers(tc.me, tc.peers)
		if (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrBadPeers)) {
			t.Errorf("%s: CheckPeers(%v, %v) = %v, want ok=%v", tc.name, tc.me, tc.peers, err, tc.ok)
		}
	}
	for _, tc := range []struct {
		p    types.ProcessID
		slot int
		ok   bool
	}{
		{1, 0, true}, {2, 1, true}, {4, 3, true},
		{0, -1, false}, {-1, -1, false}, {5, -1, false},
		{math.MinInt, -1, false}, {math.MaxInt, -1, false},
	} {
		if slot, ok := s.Index(tc.p); slot != tc.slot || ok != tc.ok {
			t.Errorf("Index(%d) = (%d, %v), want (%d, %v)", tc.p, slot, ok, tc.slot, tc.ok)
		}
	}
}
