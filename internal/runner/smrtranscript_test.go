package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"testing"

	"repro/internal/coin"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/types"
	"repro/internal/wire"
)

// transcribed is a member of a pinned RunSMR that hashes what it emits
// (each message through the wire codec, so every field counts) and, while
// its replica is up, the replica's observable state after each Start and
// Deliver. An attacker's forged emissions count like any other.
type transcribed struct {
	member
	rep func() *smr.Replica
	h   hash.Hash
	buf []byte
}

func (n *transcribed) Start() []types.Message {
	out := n.member.Start()
	n.record('S', out)
	return out
}

func (n *transcribed) Deliver(m types.Message) []types.Message {
	out := n.member.Deliver(m)
	n.record('D', out)
	return out
}

func (n *transcribed) record(op byte, out []types.Message) {
	b := append(n.buf[:0], op)
	b = binary.AppendUvarint(b, uint64(len(out)))
	for _, m := range out {
		var err error
		if b, err = wire.AppendMessage(b, m); err != nil {
			panic(fmt.Sprintf("encoding %T: %v", m.Payload, err))
		}
	}
	if r := n.rep(); r != nil {
		for _, v := range []int{
			r.Slot(), r.Base(), r.LogLen(), r.CertifiedCut(), r.Transfers(),
			r.TransferRetries(), r.StaleResponses(), r.UnverifiableResponses(),
			r.StoreErrors(), r.RestoredCut(), r.SuffixDivergence(), r.PendingCuts(), r.Dropped(),
		} {
			b = binary.AppendVarint(b, int64(v))
		}
		b = binary.BigEndian.AppendUint64(b, r.LogDigest())
	}
	n.h.Write(b)
	n.buf = b
}

// smrTranscripts is RunSMR with every live member transcribed; it returns
// the members' transcript hashes in placement order and the run's
// simulator counts.
func smrTranscripts(t *testing.T, cfg SMRConfig) ([]string, SimStats) {
	t.Helper()
	spec, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cfg.place()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := newCluster(newScheduler(cfg.sched, smrSchedParams, pl.topology(cfg)),
		cfg.Seed, cfg.budget(), false, cfg.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	r := &smrRun{
		cfg: cfg, spec: spec, pl: pl, cl: cl,
		audit:  newLogAuditor(cfg.Slots, len(pl.live)),
		cuts:   make([]int, len(pl.live)),
		secret: []byte(fmt.Sprintf("smr-ckpt-%d", cfg.Seed)),
	}
	if cfg.Coin == CoinCommon {
		r.dealers = coin.NewDealerSet(spec, cfg.Seed+1)
	}
	members, err := r.boot()
	if err != nil {
		t.Fatal(err)
	}
	pinned := make([]*transcribed, len(members))
	nodes := make([]sim.Node, len(members))
	for i, m := range members {
		pinned[i] = &transcribed{member: m.(member), rep: r.audit.observers[i].current, h: sha256.New()}
		nodes[i] = pinned[i]
	}
	minCommits := 0
	if cfg.Restart != nil {
		minCommits = victimMinCommits
	}
	r.audit.drainAll()
	stats, exhausted, err := cl.run(nodes, func() bool {
		return r.audit.arrived == len(pl.live) && r.audit.victimCommitted >= minCommits
	})
	if err != nil || exhausted {
		t.Fatalf("run failed: exhausted=%v err=%v", exhausted, err)
	}
	hashes := make([]string, len(pinned))
	for i, p := range pinned {
		hashes[i] = hex.EncodeToString(p.h.Sum(nil)[:8])
	}
	return hashes, stats
}

// goldenSMRTranscripts holds each smrGoldenConfigs run's per-member
// transcript hashes, in placement order.
var goldenSMRTranscripts = map[string]string{
	"common/ckpt4/crashed1":                "a369b8e763de548e 6748c71410b66406 85beebacaebba831",
	"corrupt-responder/split-heal":         "452e70426026793e 1e450f7f6aa72b77 c91c9faf2b711963 8d1fdce7c7545683",
	"corrupt-responder/split-heal/control": "2c01ff981549d05d e484a4290991ce85 cfd33d74d9ab869d caed5a4248aad4db",
	"cut-equivocate/restart":               "28a193d976428068 8a5ee82388129e7f 54e9593514a64a1c 82ecea15e24dfc2f",
	"cut-equivocate/restart/control":       "dba39ce4e90f5c3d 6374311bc6ef87dd 46981f2d7e5c2d2c f6ae6a963e3c0854",
	"future-spam/straggler":                "29a8c9fafae9049d 0e4c84d7b9039f1d 0618cb182d844755 fd629498d410a02c",
	"future-spam/straggler/control":        "c00296989852013e 837929aa5be823fc 5315214c7347e825 b6e97be5e91a0ea4",
	"mac-forge/reorder":                    "2090964badc77459 580c84b74d21cfff 1c56f8f53dc64221 95f788e4b6c2c828 dc337074e46ed387 3bf6a7152afcd051 57b2216f8e6bf44f",
	"mac-forge/reorder/control":            "477ed2af2064a04c 4d937998abfd1970 7a11da33455eacee f6a798f3b2b28078 55beed5fdafcdd31 ea4e3319c81d0785 f226c5a7a9b90bc9",
	"n7/coded/batch4/depth2":               "37f35d86c1a0640b bee9fc6a9b785806 4d1916d69f240839 428594fc656d0942 2eaf995272bd1654 7d3ca3515accf296 3c2bea9aab46f11c",
	"stale-responder/restart":              "f6b8948354a5f68f 426edd200ef9e23b 59b05fc37b27d2c4 3f6e6bda89d15001",
	"stale-responder/restart/control":      "dba39ce4e90f5c3d 6374311bc6ef87dd 46981f2d7e5c2d2c f6ae6a963e3c0854",
}

// TestSMRTranscriptsPinned holds every member of every golden RunSMR
// configuration — the checkpoint attacks and their controls among them —
// to its transcript. The run itself must be the golden one: a transcribed
// run that drifted from RunSMR would pin nothing.
func TestSMRTranscriptsPinned(t *testing.T) {
	for name, cfg := range smrGoldenConfigs() {
		hashes, stats := smrTranscripts(t, cfg)
		if g := goldenSMR[name]; stats.Messages != g.Messages || stats.Deliveries != g.Deliveries || stats.EndTime != g.EndTime {
			t.Errorf("%s: transcribed run sent %d, delivered %d, ended at %d; RunSMR's golden %d, %d, %d",
				name, stats.Messages, stats.Deliveries, stats.EndTime, g.Messages, g.Deliveries, g.EndTime)
		}
		got := strings.Join(hashes, " ")
		if want, ok := goldenSMRTranscripts[name]; !ok || got != want {
			t.Errorf("%q: %q,", name, got)
		}
	}
}
