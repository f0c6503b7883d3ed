package smr

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// startProbe is a slot's coin, the local coin the replica would use, that
// looks at its replica's engine the moment the engine starts the slot: core
// calls Prune with floor 0 once per instance, on entering round 1 right after
// the re-arm, before the instance sends or folds anything. It is one
// allocation, as the local coin it stands in for is.
type startProbe struct {
	coin.Local
	rig  *rearmRig
	i    int
	slot int
	done bool
}

// rearmRig is what the probes of one cluster share: its replicas and the
// engine each started its last slot on.
type rearmRig struct {
	t        *testing.T
	replicas []*Replica
	engines  []*core.Node
}

func (p *startProbe) Prune(floor int) {
	if floor != 0 || p.done {
		return
	}
	p.done = true
	rig, r := p.rig, p.rig.replicas[p.i]
	if p.slot > 0 {
		checkRearmed(rig.t, r, rig.engines[p.i])
	}
	rig.engines[p.i] = r.ord.bin
}

// field reads the unexported field path of v, following pointers; the
// engine's parts expose no count of pending messages or DECIDE votes.
func field(t *testing.T, v reflect.Value, path ...string) reflect.Value {
	t.Helper()
	for _, name := range path {
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if v = v.FieldByName(name); !v.IsValid() {
			t.Fatalf("engine has no field %q (renamed?)", name)
		}
	}
	return v
}

// checkRearmed fails unless r's engine, just re-armed for the current slot,
// is the engine of the slot before and holds nothing of it: no live or
// compacted RBC instance, no seen key, justification digest, pending message
// or wait count in its validator and quorum waits, no DECIDE vote or
// decision, and the replica buffers no traffic of a started slot.
func checkRearmed(t *testing.T, r *Replica, prev *core.Node) {
	t.Helper()
	bin := r.ord.bin
	if bin != prev {
		t.Fatalf("%v slot %d: engine rebuilt, want the previous slot's re-armed", r.cfg.Me, r.ord.slot)
	}
	v, decided := bin.Decided()
	for _, c := range []struct {
		what string
		got  int
	}{
		{"live RBC instances", bin.RBCLiveInstances()},
		{"compacted RBC records", bin.RBCCompacted()},
		{"validator seen keys", bin.ValidatorSeenRetained()},
		{"justification digests", bin.JustificationsRetained()},
		{"folded wait messages", bin.AcceptedRetained()},
		{"pending validator messages", field(t, reflect.ValueOf(bin), "val", "pending").Len()},
		{"DECIDE votes for 0", int(field(t, reflect.ValueOf(bin), "gadget", "votes").Index(0).Int())},
		{"DECIDE votes for 1", int(field(t, reflect.ValueOf(bin), "gadget", "votes").Index(1).Int())},
		{"decided round", bin.DecidedRound()},
	} {
		if c.got != 0 {
			t.Fatalf("%v slot %d: re-armed engine holds %d %s", r.cfg.Me, r.ord.slot, c.got, c.what)
		}
	}
	voted := field(t, reflect.ValueOf(bin), "gadget", "voted")
	for i := 0; i < voted.Len(); i++ {
		if voted.Index(i).Uint() != 0 {
			t.Fatalf("%v slot %d: re-armed engine keeps DECIDE voters %#x", r.cfg.Me, r.ord.slot, voted.Index(i).Uint())
		}
	}
	if decided || bin.Done() {
		t.Fatalf("%v slot %d: re-armed engine decided %v, done %v", r.cfg.Me, r.ord.slot, v, bin.Done())
	}
	// order-free: a check per key
	for inst := range r.ord.pending {
		if inst <= r.ord.slot {
			t.Fatalf("%v slot %d: traffic of instance %d still buffered", r.cfg.Me, r.ord.slot, inst)
		}
	}
}

// TestEngineRearmAllocations runs an n=16 log shaped like the benchmark's
// smr_plain_n16 (batches of 16 short commands, depth 2, local coin) and
// pins the allocations per replica per slot once every replica's engine is
// warm: built at the first slot and re-armed at every later one, so a slot
// costs no engine, broadcaster, validator or table, and about one block of
// instances, SEND payloads and tallies. At every slot start past the first
// it checks the re-armed engine is the previous slot's and holds nothing of
// it (checkRearmed). The bound is the measured value × 1.15. Under -race the
// count is only logged: the race runtime allocates on its own, so there it
// measures the detector, not the code.
func TestEngineRearmAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-cluster allocation count; skipped under -short")
	}
	const (
		n, f, batch, depth = 16, 5, 16, 2
		warm, measured     = 4, 16
		seed               = 3
		bound              = 11.1 * 1.15
	)
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 25}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rig := &rearmRig{t: t, replicas: make([]*Replica, n), engines: make([]*core.Node, n)}
	replicas := rig.replicas
	for i, p := range peers {
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return &startProbe{Local: *coin.NewLocal(seed + int64(p)*1000 + int64(slot)), rig: rig, i: i, slot: slot}
			},
			Machine:  NewKVMachine(),
			maxSlots: warm + measured,
			Batch:    batch,
			Depth:    depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < (warm+measured+n-1)/n*batch+depth*batch; c++ {
			rep.Submit(fmt.Sprintf("set k%d-%d v%d", p, c, c))
		}
		replicas[i] = rep
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	atLeast := func(slot int) bool {
		for _, rep := range replicas {
			if rep.Slot() < slot {
				return false
			}
		}
		return true
	}
	var before, after runtime.MemStats
	warmed := false
	if _, err := net.Run(func() bool {
		if !warmed && atLeast(warm) {
			warmed = true
			runtime.ReadMemStats(&before)
		}
		return atLeast(warm + measured)
	}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if !atLeast(warm + measured) {
		t.Fatalf("the log stopped short of slot %d", warm+measured)
	}
	perSlot := float64(after.Mallocs-before.Mallocs) / (n * measured)
	t.Logf("%.1f allocations per replica per slot over %d warm slots", perSlot, measured)
	if !raceEnabled && perSlot > bound {
		t.Errorf("%.1f allocations per replica per slot, bound %.1f", perSlot, bound)
	}
}
