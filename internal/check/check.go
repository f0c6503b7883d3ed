// Package check verifies protocol invariants over completed executions. The
// experiment runner feeds it what each correct process proposed, decided, and
// delivered; it returns the list of violated properties. Every consensus and
// broadcast property of the paper is checked on every run of every
// experiment, so "0 violations" in EXPERIMENTS.md is machine-checked, and the
// tightness experiment (E7) relies on these checkers to detect that the
// protocol actually breaks beyond f = ⌊(n−1)/3⌋.
package check

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// Violation is one broken property.
type Violation struct {
	Property string // e.g. "agreement"
	Detail   string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Property + ": " + v.Detail }

// Render formats a violation list, "none" when empty.
func Render(vs []Violation) string {
	if len(vs) == 0 {
		return "none"
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, "; ")
}

// Consensus properties (Definition: strong Byzantine consensus, binary).
const (
	PropAgreement   = "agreement"
	PropValidity    = "validity"
	PropIntegrity   = "integrity"
	PropTermination = "termination"
)

// ConsensusObservation is what the harness observed of one consensus
// execution, restricted to correct processes (the paper guarantees nothing
// for faulty ones).
type ConsensusObservation struct {
	// Correct lists the correct processes.
	Correct []types.ProcessID
	// Proposals maps each correct process to its input value.
	Proposals map[types.ProcessID]types.Value
	// Decisions maps each correct process to every decide event it emitted,
	// in order. A correct implementation emits exactly one.
	Decisions map[types.ProcessID][]types.Value
	// Quiesced reports that the run ended (network quiescent or budget
	// spent) — at which point non-decision is a termination violation.
	Quiesced bool
}

// Consensus checks agreement, strong validity, and integrity; termination is
// checked only when the observation quiesced (asynchronous runs stopped
// early prove nothing about liveness).
func Consensus(obs ConsensusObservation) []Violation {
	var out []Violation

	// Integrity: no correct process decides twice.
	for _, p := range sortedIDs(obs.Correct) {
		if n := len(obs.Decisions[p]); n > 1 {
			out = append(out, Violation{
				Property: PropIntegrity,
				Detail:   fmt.Sprintf("%v decided %d times: %v", p, n, obs.Decisions[p]),
			})
		}
	}

	// Agreement: no two correct processes decide differently.
	decided := map[types.Value][]types.ProcessID{}
	for _, p := range sortedIDs(obs.Correct) {
		if len(obs.Decisions[p]) > 0 {
			v := obs.Decisions[p][0]
			decided[v] = append(decided[v], p)
		}
	}
	if len(decided) > 1 {
		out = append(out, Violation{
			Property: PropAgreement,
			Detail:   fmt.Sprintf("conflicting decisions: %v", renderDecisionGroups(decided)),
		})
	}

	// Strong validity (binary form): a decided value must have been proposed
	// by some correct process. Decided values are binary; they are visited
	// 0 then 1, so the report does not follow map order.
	proposed := map[types.Value]bool{}
	for _, p := range obs.Correct {
		proposed[obs.Proposals[p]] = true
	}
	for _, v := range []types.Value{types.Zero, types.One} {
		if who, ok := decided[v]; ok && !proposed[v] {
			out = append(out, Violation{
				Property: PropValidity,
				Detail:   fmt.Sprintf("value %v decided by %v but proposed by no correct process", v, who),
			})
		}
	}

	// Termination: all correct processes decide (only meaningful at the end
	// of a quiesced run — probabilistic termination says the probability of
	// this failing vanishes with the round budget).
	if obs.Quiesced {
		var undecided []types.ProcessID
		for _, p := range sortedIDs(obs.Correct) {
			if len(obs.Decisions[p]) == 0 {
				undecided = append(undecided, p)
			}
		}
		if len(undecided) > 0 {
			out = append(out, Violation{
				Property: PropTermination,
				Detail:   fmt.Sprintf("undecided correct processes: %v", undecided),
			})
		}
	}
	return out
}

// Reliable-broadcast properties (Bracha broadcast).
const (
	PropRBCValidity  = "rbc-validity"
	PropRBCAgreement = "rbc-agreement"
	PropRBCIntegrity = "rbc-integrity"
	PropRBCTotality  = "rbc-totality"
)

// RBCObservation is what the harness observed of one reliable-broadcast
// instance.
type RBCObservation struct {
	// Correct lists the correct processes.
	Correct []types.ProcessID
	// SenderCorrect reports whether the instance's sender followed the
	// protocol; Broadcast is its body in that case.
	SenderCorrect bool
	Broadcast     string
	// Delivered maps each correct process to the bodies it rbc-delivered
	// for this instance, in order (a correct implementation delivers at
	// most one).
	Delivered map[types.ProcessID][]string
	// Quiesced reports that the run ended, enabling the totality check.
	Quiesced bool
}

// RBC checks the four reliable-broadcast properties on one instance.
func RBC(obs RBCObservation) []Violation {
	var out []Violation

	// Integrity: at most one delivery; if the sender is correct, only its
	// body may be delivered.
	for _, p := range sortedIDs(obs.Correct) {
		ds := obs.Delivered[p]
		if len(ds) > 1 {
			out = append(out, Violation{
				Property: PropRBCIntegrity,
				Detail:   fmt.Sprintf("%v delivered %d bodies", p, len(ds)),
			})
		}
		if obs.SenderCorrect && len(ds) > 0 && ds[0] != obs.Broadcast {
			out = append(out, Violation{
				Property: PropRBCIntegrity,
				Detail:   fmt.Sprintf("%v delivered %q, sender broadcast %q", p, ds[0], obs.Broadcast),
			})
		}
	}

	// Agreement: no two correct processes deliver different bodies.
	byBody := map[string][]types.ProcessID{}
	for _, p := range sortedIDs(obs.Correct) {
		if ds := obs.Delivered[p]; len(ds) > 0 {
			byBody[ds[0]] = append(byBody[ds[0]], p)
		}
	}
	if len(byBody) > 1 {
		out = append(out, Violation{
			Property: PropRBCAgreement,
			Detail:   fmt.Sprintf("conflicting deliveries across %d bodies", len(byBody)),
		})
	}

	// Validity: a correct sender's broadcast is delivered by all correct
	// processes (checkable once quiesced).
	if obs.Quiesced && obs.SenderCorrect {
		for _, p := range sortedIDs(obs.Correct) {
			if len(obs.Delivered[p]) == 0 {
				out = append(out, Violation{
					Property: PropRBCValidity,
					Detail:   fmt.Sprintf("%v never delivered the correct sender's broadcast", p),
				})
			}
		}
	}

	// Totality: if any correct process delivered, all must (once quiesced).
	if obs.Quiesced && len(byBody) > 0 {
		for _, p := range sortedIDs(obs.Correct) {
			if len(obs.Delivered[p]) == 0 {
				out = append(out, Violation{
					Property: PropRBCTotality,
					Detail:   fmt.Sprintf("%v delivered nothing while others delivered", p),
				})
			}
		}
	}
	return dedupe(out)
}

// maxSampleSeeds bounds how many offending seeds a Tally retains: enough to
// reproduce failures, small enough to keep the tally constant-memory.
const maxSampleSeeds = 16

// Tally accumulates check results across many runs in constant memory — the
// reducer the streaming sweep engine (internal/runner) folds every run's
// violation list into. Its whole state is exported with JSON tags and
// contains only integers and a sorted-key map, so a marshalled tally
// restores bit for bit (the checkpoint/resume guarantee).
type Tally struct {
	// Runs counts observed runs; ViolatedRuns those with ≥ 1 violation.
	Runs         int64 `json:"runs"`
	ViolatedRuns int64 `json:"violated_runs"`
	// Violations is the total violation count across all runs.
	Violations int64 `json:"violations"`
	// ByProperty counts violations per property name.
	ByProperty map[string]int64 `json:"by_property,omitempty"`
	// SampleSeeds holds the seeds of the first few violated runs, so a
	// failure found deep inside a million-run sweep replays with a single
	// targeted run.
	SampleSeeds []int64 `json:"sample_seeds,omitempty"`
}

// Observe folds one run's violations into the tally. seed identifies the run
// for SampleSeeds.
func (t *Tally) Observe(seed int64, vs []Violation) {
	t.Runs++
	if len(vs) == 0 {
		return
	}
	t.ViolatedRuns++
	t.Violations += int64(len(vs))
	if t.ByProperty == nil {
		t.ByProperty = make(map[string]int64)
	}
	for _, v := range vs {
		t.ByProperty[v.Property]++
	}
	if len(t.SampleSeeds) < maxSampleSeeds {
		t.SampleSeeds = append(t.SampleSeeds, seed)
	}
}

// Clean reports whether no violation was observed.
func (t *Tally) Clean() bool { return t.Violations == 0 }

// String implements fmt.Stringer.
func (t *Tally) String() string {
	if t.Clean() {
		return fmt.Sprintf("%d runs, no violations", t.Runs)
	}
	props := make([]string, 0, len(t.ByProperty))
	// order-free: properties sorted below
	for p := range t.ByProperty {
		props = append(props, p)
	}
	sort.Strings(props)
	parts := make([]string, 0, len(props))
	for _, p := range props {
		parts = append(parts, fmt.Sprintf("%s=%d", p, t.ByProperty[p]))
	}
	return fmt.Sprintf("%d/%d runs violated (%s; first seeds %v)",
		t.ViolatedRuns, t.Runs, strings.Join(parts, " "), t.SampleSeeds)
}

func renderDecisionGroups(decided map[types.Value][]types.ProcessID) string {
	vals := make([]int, 0, len(decided))
	// order-free: values sorted below
	for v := range decided {
		vals = append(vals, int(v))
	}
	sort.Ints(vals)
	parts := make([]string, 0, len(vals))
	for _, v := range vals {
		parts = append(parts, fmt.Sprintf("%d<-%v", v, decided[types.Value(v)]))
	}
	return strings.Join(parts, " vs ")
}

func sortedIDs(ps []types.ProcessID) []types.ProcessID {
	out := append([]types.ProcessID(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func dedupe(vs []Violation) []Violation {
	seen := map[Violation]bool{}
	out := vs[:0]
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
