package smr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// This file pins every replica's transcript: each message it emits, encoded
// by the wire codec so every field counts, and its observable state after
// each Start and Deliver. A change to how the replica lays out its state
// must reproduce these hashes exactly; a change that moves one emission or
// one counter fails here at the replica that moved.

// transcript is one replica's running hash. A restarted replica keeps its
// predecessor's, so the revival is part of the same transcript.
type transcript struct {
	h   hash.Hash
	buf []byte
}

// transcriptNode runs its replica unchanged and records into its transcript.
type transcriptNode struct {
	*Replica
	tr *transcript
}

func (n transcriptNode) Start() []types.Message {
	out := n.Replica.Start()
	n.record('S', out)
	return out
}

func (n transcriptNode) Deliver(m types.Message) []types.Message {
	out := n.Replica.Deliver(m)
	n.record('D', out)
	return out
}

func (n transcriptNode) record(op byte, out []types.Message) {
	r, tr := n.Replica, n.tr
	b := append(tr.buf[:0], op)
	b = binary.AppendUvarint(b, uint64(len(out)))
	for _, m := range out {
		var err error
		if b, err = wire.AppendMessage(b, m); err != nil {
			panic(fmt.Sprintf("encoding %T: %v", m.Payload, err))
		}
	}
	for _, v := range []int{
		r.Slot(), r.Base(), r.LogLen(), r.CertifiedCut(), r.Transfers(),
		r.TransferRetries(), r.StaleResponses(), r.UnverifiableResponses(),
		r.StoreErrors(), r.RestoredCut(), r.SuffixDivergence(), r.PendingCuts(), r.Dropped(),
	} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.BigEndian.AppendUint64(b, r.LogDigest())
	tr.h.Write(b)
	tr.buf = b
}

// pinCluster is one pinned cluster run.
type pinCluster struct {
	n, f         int
	absent       int    // trailing peers that never start; the rotation skips them
	coin         string // "local" or "ideal" (per slot)
	sched        string // "uniform", "fifo" or "reorder"
	slots        int
	seed         int64
	batch, depth int
	coded        bool
	every        int  // checkpoint cadence (0 = off)
	per          int  // commands each replica submits
	restart      bool // the last peer crashes, then revives empty; the rotation skips it
}

// run builds the cluster (with stores[i] as replica i's durable store when
// given), runs it until every replica but a restart victim is done, and
// returns each replica's transcript hash and the replicas as they ended.
func (c pinCluster) run(t *testing.T, stores []*ckpt.Store) ([]string, []*Replica) {
	t.Helper()
	spec := quorum.MustNew(c.n, c.f)
	peers := types.Processes(c.n)
	live := peers[:c.n-c.absent]
	rotation := live
	if c.restart {
		rotation = live[:len(live)-1]
	}
	var sched sim.Scheduler
	switch c.sched {
	case "uniform":
		sched = sim.UniformDelay{Min: 1, Max: 25}
	case "fifo":
		sched = sim.NewFIFODelay(1, 20)
	case "reorder":
		sched = sim.ReorderDelay{Span: 48}
	default:
		t.Fatalf("unknown scheduler %q", c.sched)
	}
	net, err := sim.New(sim.Config{Scheduler: sched, Seed: c.seed})
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*transcript, len(live))
	reps := make([]*Replica, len(live))
	for i, p := range live {
		trs[i] = &transcript{h: sha256.New()}
		cfg := Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				if c.coin == "ideal" {
					return coin.NewIdeal(c.seed + int64(slot))
				}
				return coin.NewLocal(c.seed + int64(p)*1000 + int64(slot))
			},
			Rotation: rotation,
			Machine:  NewKVMachine(),
			maxSlots: c.slots,
			Batch:    c.batch,
			Depth:    c.depth,
			Coded:    c.coded,
		}
		if c.every > 0 {
			cfg.CheckpointEvery = c.every
			cfg.CheckpointSecret = []byte("pin-cluster")
		}
		if stores != nil {
			cfg.Store = stores[i]
		}
		build := func() sim.Node {
			cfg.Machine = NewKVMachine()
			rep, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < c.per; k++ {
				rep.Submit(fmt.Sprintf("set k%d-%d v%d", p, k, k))
			}
			reps[i] = rep
			return transcriptNode{rep, trs[i]}
		}
		node := build()
		if c.restart && i == len(live)-1 {
			node = sim.NewRestart(build, 80*c.n, 160*c.n)
		}
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	victim := func(i int) bool { return c.restart && i == len(reps)-1 }
	stop := func() bool {
		for i, rep := range reps {
			if !rep.Done() && !victim(i) {
				return false
			}
		}
		return true
	}
	if _, err := net.Run(stop); err != nil {
		t.Fatal(err)
	}
	if !stop() {
		t.Fatalf("the cluster stopped short of slot %d", c.slots)
	}
	hashes := make([]string, len(trs))
	for i, tr := range trs {
		hashes[i] = hex.EncodeToString(tr.h.Sum(nil)[:8])
	}
	return hashes, reps
}

// pinClusters is the pinned matrix: the three replay configurations, a
// checkpointed cluster, a catch-up by state transfer, batch × depth, and
// coded dissemination.
func pinClusters() map[string]pinCluster {
	cs := map[string]pinCluster{
		"ckpt/n4":          {n: 4, f: 1, coin: "local", sched: "uniform", slots: 16, seed: 17, every: 4, per: 2},
		"ckpt/n4/restart":  {n: 4, f: 1, coin: "local", sched: "uniform", slots: 24, seed: 19, every: 4, per: 6, restart: true},
		"ckpt/n7/batch":    {n: 7, f: 2, coin: "ideal", sched: "reorder", slots: 12, seed: 23, every: 4, per: 9, batch: 3, depth: 2},
		"coded/n4/b4d2":    {n: 4, f: 1, coin: "local", sched: "uniform", slots: 8, seed: 5, batch: 4, depth: 2, per: 12, coded: true},
		"coded/n7/b2d5":    {n: 7, f: 2, coin: "local", sched: "fifo", slots: 10, seed: 29, batch: 2, depth: 5, per: 6, coded: true, every: 4},
		"coded/n4/unbatch": {n: 4, f: 1, coin: "ideal", sched: "uniform", slots: 6, seed: 31, per: 3, coded: true},
	}
	for name, rc := range replayConfigs() {
		cs[name] = pinCluster{n: rc.n, f: rc.f, absent: rc.absent, coin: rc.coin, sched: rc.scheduler,
			slots: rc.maxSlots, seed: rc.seed, per: 1}
	}
	for _, batch := range []int{1, 3} {
		for _, depth := range []int{1, 2, 5} {
			cs[fmt.Sprintf("batch%d/depth%d", batch, depth)] = pinCluster{n: 4, f: 1, coin: "local", sched: "uniform",
				slots: 10, seed: 5, batch: batch, depth: depth, per: 8}
		}
	}
	return cs
}

// goldenTranscripts holds each pinned run's per-replica transcript hashes,
// in peer order; "store/power-cycle" is two runs over the same stores.
var goldenTranscripts = map[string]string{
	"batch1/depth1":     "20b0632da406eeb0 d0973c9e536cc69f 9fb540da2b6b931c 16ca238c0846c4f2",
	"batch1/depth2":     "25421c462b7431aa 3eb26ec3bcc7abcf 4db148418b479bf9 9906e462c5ada21f",
	"batch1/depth5":     "00f64fed566bbac9 997b785608732183 f6570ddc4429f9bb 9bee629c5d23951e",
	"batch3/depth1":     "893fb3d9e27adf92 2d6b718952f34614 7150e7c06d8abb84 1f1924519090bd2f",
	"batch3/depth2":     "5fab0d6082fdd76c 97d5675df0e8c860 1c9a06f5e9bba5fb bafe32cd8a5edc90",
	"batch3/depth5":     "6f7d7cfaf802eb8c f811b5a8382cb294 4a6aa8977217ea2c f4da81a71781ba94",
	"ckpt/n4":           "d7d5a074e5cfbd02 0ccbd6c4e750eb4b 5af235a4b1352c9b c1ae86f271aa8914",
	"ckpt/n4/restart":   "7f994771449aeba4 690fbf8cd90db643 479a9326a4b01333 dd626a84a67b70aa",
	"ckpt/n7/batch":     "6c8e6491026e2639 a2f7784fd84fcf96 7ccd3e21558a17d8 16f18320dc429963 fdaf7e5392d5e734 6bb86668e0f5c0e4 641cc919286ba9aa",
	"coded/n4/b4d2":     "9e6f4ca317543c15 0d63a91936d59c21 5568da968f77e7db e210b41f11adaf0d",
	"coded/n4/unbatch":  "d8a1582b530dee49 d2349f60fcf5f19f df8d0b304a23b724 839d4a17e11ad558",
	"coded/n7/b2d5":     "c4adc31fc467c304 cb7bdac97377bd26 fdf105607018314a c6a91fa9db88054f d3a2bbbb91bee96e d0462583c0725fd9 91b77945a93c6a1d",
	"smr/ideal/fifo":    "3763064391b73e35 3eb2eb55c5180b5f b5314acc71b02e54 e5187b3d14939c64",
	"smr/local/reorder": "c88504edcaa0bb0e ee59dac521fdde12 96a0ed08d98b1a12 0a2a5ca4164a9e32 51a219c3da2c7304 17351df7572b7f65 090bd241a5f4115a",
	"smr/local/uniform": "e01a9d6ea249e8f5 ed5c44570437f99b f104ef91a3df13b6",
	"store/power-cycle": "e762a76a9a7550c8 c1417cb296d2d81e 624f34e244667ded 6a72c469c59f0854 60c2050c05f8a63a 132d09758ff5d066 894401be4df416ed 1a853d1fc238d1bb",
}

// TestReplicaTranscriptsPinned runs every pinned cluster, plus a power cycle
// through durable stores, and holds each replica's transcript to its hash.
func TestReplicaTranscriptsPinned(t *testing.T) {
	got := map[string]string{}
	for name, c := range pinClusters() {
		hashes, reps := c.run(t, nil)
		got[name] = strings.Join(hashes, " ")
		if c.restart && reps[len(reps)-1].Transfers() == 0 {
			t.Errorf("%s: the revived replica installed no transfer", name)
		}
	}

	dir := t.TempDir()
	power := pinCluster{n: 4, f: 1, coin: "local", sched: "uniform", slots: 12, seed: 37, every: 4, per: 4}
	stores := make([]*ckpt.Store, power.n)
	for i := range stores {
		stores[i] = ckpt.NewStore(filepath.Join(dir, fmt.Sprintf("p%d.ckpt", i+1)))
	}
	first, _ := power.run(t, stores)
	power.slots = 20
	second, reps := power.run(t, stores)
	for _, rep := range reps {
		if rep.RestoredCut() == 0 {
			t.Errorf("store/power-cycle: %v booted empty", rep.ID())
		}
	}
	got["store/power-cycle"] = strings.Join(append(first, second...), " ")

	for name, hashes := range got {
		if want, ok := goldenTranscripts[name]; !ok || hashes != want {
			t.Errorf("%q: %q,", name, hashes)
		}
	}
	for name := range goldenTranscripts {
		if _, ok := got[name]; !ok {
			t.Errorf("golden %q has no run", name)
		}
	}
}
