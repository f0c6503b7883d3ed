package smr

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// replayConfig describes one traced replay run of a replica cluster.
type replayConfig struct {
	n, f      int
	absent    int    // trailing processes that never start (silent faults)
	coin      string // "local" or "ideal" (per slot)
	scheduler string // "uniform", "fifo" or "reorder"
	maxSlots  int
	seed      int64
}

// replayConfigs is the SMR golden matrix: both per-slot coins the replay
// covers, three scheduler kinds, with and without silent faults.
func replayConfigs() map[string]replayConfig {
	return map[string]replayConfig{
		"smr/local/uniform": {
			n: 4, f: 1, absent: 1, coin: "local", scheduler: "uniform",
			maxSlots: 4, seed: 10,
		},
		"smr/ideal/fifo": {
			n: 4, f: 1, absent: 0, coin: "ideal", scheduler: "fifo",
			maxSlots: 3, seed: 11,
		},
		"smr/local/reorder": {
			n: 7, f: 2, absent: 0, coin: "local", scheduler: "reorder",
			maxSlots: 3, seed: 12,
		},
	}
}

// replayHash runs one configuration with network-level tracing and digests
// the complete event sequence plus every replica's committed log. Identical
// hashes mean identical executions: same messages, same order, same logs.
func replayHash(t *testing.T, cfg replayConfig) string {
	t.Helper()
	spec := quorum.MustNew(cfg.n, cfg.f)
	peers := types.Processes(cfg.n)
	live := peers[:cfg.n-cfg.absent]
	var sched sim.Scheduler
	switch cfg.scheduler {
	case "uniform":
		sched = sim.UniformDelay{Min: 1, Max: 20}
	case "fifo":
		sched = sim.NewFIFODelay(1, 20) // stateful: a fresh one per run
	case "reorder":
		sched = sim.ReorderDelay{Span: 48}
	default:
		t.Fatalf("unknown scheduler %q", cfg.scheduler)
	}
	rec := trace.New(0)
	net, err := sim.New(sim.Config{Scheduler: sched, Seed: cfg.seed, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]*Replica, 0, len(live))
	for _, p := range live {
		var newCoin func(int) coin.Coin
		switch cfg.coin {
		case "local":
			newCoin = func(slot int) coin.Coin {
				return coin.NewLocal(cfg.seed + int64(p)*1000 + int64(slot))
			}
		case "ideal":
			newCoin = func(slot int) coin.Coin {
				return coin.NewIdeal(cfg.seed + int64(slot))
			}
		default:
			t.Fatalf("unknown coin %q", cfg.coin)
		}
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin:  newCoin,
			Rotation: live,
			Machine:  plainMachine{},
			maxSlots: cfg.maxSlots,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Submit(fmt.Sprintf("set k%d v%d", p, p))
		replicas = append(replicas, rep)
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := net.Run(func() bool {
		for _, rep := range replicas {
			if !rep.Done() {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range rec.Events() {
		fmt.Fprintln(h, e.String())
	}
	fmt.Fprintf(h, "msgs=%d deliveries=%d end=%d exhausted=%v\n",
		stats.Sent, stats.Delivered, stats.End, stats.Exhausted)
	for _, rep := range replicas {
		fmt.Fprintf(h, "log %v:", rep.ID())
		for _, e := range rep.LogSince(0) {
			fmt.Fprintf(h, " %d/%v/%q", e.Slot, e.Proposer, e.Command)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenReplayHashes pins the SMR executions of the implementation before
// the zero-allocation delivery spine (fresh output slices per delivery,
// map-backed accepted lists, no per-round pruning); every later change must
// reproduce them bitwise. The ACS rows of the same matrix are in
// internal/runner's goldenStackHashes.
var goldenReplayHashes = map[string]string{
	"smr/local/uniform": "a8f9eaabc163021292f8b0f6827d98a45a736cf8028e98d386297284b867be78",
	"smr/ideal/fifo":    "581aa8bf23d3c8872f1f7fc67a65fa9ab1e1bf0865ed7f2fb325354155b39fa6",
	"smr/local/reorder": "6c25dd3ec593474c37543cd038bd566437d86c91d149b732857caa943f2ddbd0",
}

// TestStackReplayEqualityGolden: every pinned execution reproduces byte
// for byte.
func TestStackReplayEqualityGolden(t *testing.T) {
	for name, cfg := range replayConfigs() {
		t.Run(name, func(t *testing.T) {
			got := replayHash(t, cfg)
			want, ok := goldenReplayHashes[name]
			if !ok {
				t.Fatalf("no golden hash for %q (got %s)", name, got)
			}
			if got != want {
				t.Errorf("trace hash diverged from the pinned execution:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestStackReplaySameSeedTwice checks pure determinism: the same (config,
// seed) run twice in one process traces identically.
func TestStackReplaySameSeedTwice(t *testing.T) {
	for name, cfg := range replayConfigs() {
		t.Run(name, func(t *testing.T) {
			if a, b := replayHash(t, cfg), replayHash(t, cfg); a != b {
				t.Errorf("same seed, different traces: %s vs %s", a, b)
			}
		})
	}
}
