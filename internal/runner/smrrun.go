package runner

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/ckpt"
	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/types"
	"repro/internal/wire"
)

// This file is the replicated-log (SMR) workload harness: the run mode
// behind the checkpoint experiments (E12), the `bench smr` CLI, and the
// restart-catchup scenario. Where Run drives one consensus instance to a
// decision, RunSMR drives a whole log — n replicas committing Slots slots,
// optionally checkpointing every CheckpointEvery slots, optionally with one
// replica killed mid-run and revived with empty state (sim.Restart), forced
// to catch up through ckpt state transfer.
//
// A log auditor (smraudit.go) tails each replica's log after the deliveries
// to it for the cross-replica agreement check, the reference digests and the
// stop test.
//
// Replicas run unbounded (no commit bound) and the harness stops the network
// once every live replica's frontier reached Slots (and, in restart runs,
// the revived victim has committed victimMinCommits entries itself) — the
// non-halting formulation, so peers keep serving state transfer while the
// victim catches up.

// SMRConfig describes one replicated-log workload run.
type SMRConfig struct {
	N int // total processes
	F int // fault bound
	// Slots is the commit frontier every live replica must reach (> 0).
	Slots int
	// Commands preloads this many "set" commands per rotation member
	// (further slots commit noops).
	Commands int
	// CommandBytes, when > 0, pads every preloaded command to at least this
	// many bytes (a deterministic filler in the value field). The bandwidth
	// experiments (E14) use it to sweep dissemination body sizes; the default
	// short commands exercise the protocol, not the wire.
	CommandBytes int
	// Coded switches candidate dissemination to erasure-coded reliable
	// broadcast (smr.Config.Coded). The committed log, and every digest in
	// this result, is bitwise identical to the uncoded run of the same
	// (config, seed); WireBytes shows what changes.
	Coded bool
	// Batch caps how many queued commands one proposing turn bundles into a
	// single dissemination body (0 or 1 = one command per slot; see
	// smr.Config.Batch). A slot then unbatches into up to Batch committed
	// entries.
	Batch int
	// Depth is the dissemination pipeline depth (0 or 1 = off; see
	// smr.Config.Depth): proposing turns up to Depth-1 slots past the
	// agreement frontier disseminate early.
	Depth int
	// CheckpointEvery is the checkpoint cadence in slots (0 = off).
	CheckpointEvery int
	// Coin selects the per-slot coin: CoinLocal, CoinIdeal, or CoinCommon
	// (per-slot dealers via coin.DealerSet, released below certified cuts).
	Coin CoinKind
	// Seed drives the run; everything is a pure function of (config, seed).
	Seed int64
	// Restart, when set, wraps the last live replica in a deterministic
	// kill/revive (requires checkpointing: a restarted replica's in-flight
	// messages are gone, so only state transfer can bring it back).
	Restart *SMRRestart
	// Attack, when nonzero, turns Byzantine live replicas into
	// checkpoint-plane attackers of the given kind (adversary.CkptByzantine;
	// requires CheckpointEvery > 0). Attackers run genuine replicas
	// underneath — they stay in the proposer rotation and commit honestly —
	// so an attack run's committed log, and therefore its digests, must
	// match the attack-free control run's bitwise.
	Attack adversary.CkptAttack
	// Byzantine is how many attackers run the Attack (default 1 when Attack
	// is set; at most F). They occupy the live slots right after the
	// reference replica, early in every catching-up replica's responder
	// rotation — so transfer requests actually reach them.
	Byzantine int
	// CkptDir, when set, gives every honest replica a durable snapshot
	// store at <dir>/replica-<id>.ckpt (requires CheckpointEvery > 0):
	// replicas persist their latest certified checkpoint and, on a later
	// run over the same directory, boot from it — the whole-cluster
	// power-cycle recovery path.
	CkptDir string
	// Telemetry attaches the deterministic telemetry plane (shared by every
	// replica): per-kind wire counters and latency histograms plus the
	// checkpoint-plane phase histograms (vote→certify, request→install),
	// surfaced as SMRResult.Telemetry.
	Telemetry bool

	// Harness knobs, set only by this package's tests.

	// crashed trailing processes are absent for the whole run (silent).
	crashed int
	// spareRotation excludes the last live replica from the proposer
	// rotation without restarting it — the control configuration for the
	// kill/restart determinism property, whose committed log must be
	// comparable (same proposers, same commands) to a Restart run's.
	spareRotation bool
	// sched selects the delivery schedule — any SchedulerKind (0 =
	// SchedUniform) — over the log's topology and parameters (topology,
	// smrSchedParams).
	sched SchedulerKind
	// maxPendingCuts overrides the checkpoint tracker's pending-cut cap
	// (0 = ckpt.DefaultMaxPendingCuts).
	maxPendingCuts int
}

// SMRRestart is the deterministic kill/revive schedule of the victim (the
// last live, non-proposing replica).
type SMRRestart struct {
	// CrashAfter is how many deliveries the victim processes before dying.
	CrashAfter int
	// ReviveAfter is how many further deliveries evaporate before a fresh
	// replica (empty log, empty state) takes over.
	ReviveAfter int
}

// victimMinCommits is how many entries the revived victim must commit itself
// before a restart run may stop: "catches up and commits subsequent slots",
// made a stop condition.
const victimMinCommits = 3

// SMRResult is what one replicated-log run produced.
type SMRResult struct {
	Config SMRConfig

	// LogDigest and StateDigest are the reference replica's chained log
	// digest and shadow-machine state digest at exactly the Slots boundary
	// — identical across checkpoint intervals, worker counts, and machines
	// for a given (config, seed).
	LogDigest   uint64
	StateDigest uint64
	// FullStream reports that the reference replica's entry stream was
	// observed gap-free from slot 0 (always true in practice; a false value
	// voids the digests).
	FullStream bool
	// Mismatches counts cross-replica committed-entry disagreements (the
	// agreement check; must be 0).
	Mismatches int
	// Slots observed committed per replica index, and the max certified cut.
	Committed    []int
	CertifiedCut int
	// Entries counts the distinct committed entries observed in [0, Slots) —
	// equal to Slots without batching, up to Batch× it with batching (the
	// throughput numerator).
	Entries int
	// SubmitDropped sums the commands the replicas' bounded submit queues
	// rejected (must be 0 in a well-sized run; see smr.Replica.Dropped).
	SubmitDropped int
	// DuplicateCommands counts non-noop commands observed at more than one
	// log position (must be 0: a command is consumed exactly once, even
	// across state-transfer jumps).
	DuplicateCommands int

	// Robustness telemetry, summed over the replicas alive at the end of
	// the run (attackers report their honest inner replica's counters).
	TotalInstalls         int // state transfers installed cluster-wide
	TransferRetries       int // reactive re-requests after stale/unverifiable responses
	StaleResponses        int // full transfer responses at or below the receiver's frontier
	UnverifiableResponses int // certificate payloads that failed verification
	StoreErrors           int // durable-store failures survived (rejected loads, failed saves)
	SuffixDivergence      int // re-committed entries contradicting a durable log suffix (must be 0)
	PendingCutsMax        int // largest per-replica pending-cut table at the end (cap-bounded)
	RestoredCuts          int // replicas that booted from a durable record

	// Victim telemetry (Restart runs).
	//
	// VictimDown reports the victim was still dead when the run ended (its
	// revival never happened, or its revived instance never came back up):
	// every other Victim* field is then zero because there was no live
	// replica to read — not because catch-up failed while live. Together
	// with Exhausted it separates "the delivery budget ran out mid-outage"
	// from "the victim revived and failed to catch up", which a zero
	// Transfers alone conflates.
	VictimDown      bool
	VictimID        types.ProcessID
	VictimRetries   int // the victim's own reactive re-requests
	Transfers       int // state transfers the victim installed
	VictimBase      int // the victim's final log base (its last installed cut)
	VictimCommitted int // entries the revived victim committed itself
	// VictimSlot, VictimLogDigest, and VictimStateDigest capture the
	// victim's final frontier and its full-history log/state digests at it
	// — comparable bitwise against an uninterrupted run stopped at the same
	// frontier (the kill/restart determinism property).
	VictimSlot        int
	VictimLogDigest   uint64
	VictimStateDigest uint64

	// Residue at the end of the run, summed across live replicas: the
	// memory the checkpoint subsystem exists to bound (E12).
	RBCDigestBytes int // dissemination digest-record bytes
	RBCRecords     int // dissemination digest records
	LogRetained    int // committed entries still held
	DealerSlots    int // per-slot dealers retained (CoinCommon)
	DealerRounds   int // dealt rounds retained across them (CoinCommon)

	// SimStats.WireBytes is the E14 measurement surface.
	SimStats
	// Exhausted reports that the delivery budget ran out before every live
	// replica reached Slots: the run lost liveness. (A field of its own,
	// not SimStats', because the perf module builds SMRResult literals that
	// set it.)
	Exhausted bool
}

// normalize validates the config and resolves its defaults, returning the
// quorum arithmetic.
func (cfg *SMRConfig) normalize() (quorum.Spec, error) {
	spec, err := validate(cfg.N, cfg.F, cfg.crashed)
	if err != nil {
		return spec, err
	}
	// Run may exceed the bound on purpose (the tightness experiments); a log
	// past it can go quiet without committing (at n=4, f=2 the decide
	// threshold 2f+1 exceeds n), so it is a config error here.
	if limit := quorum.MaxByzantine(cfg.N); cfg.F > limit {
		return spec, fmt.Errorf("%w: SMR run needs f ≤ ⌊(n−1)/3⌋ = %d, got f=%d", ErrBadConfig, limit, cfg.F)
	}
	if cfg.Slots <= 0 {
		return spec, fmt.Errorf("%w: SMR run needs Slots > 0", ErrBadConfig)
	}
	if cfg.Batch < 0 || cfg.Depth < 0 {
		return spec, fmt.Errorf("%w: negative batch (%d) or pipeline depth (%d)", ErrBadConfig, cfg.Batch, cfg.Depth)
	}
	if cfg.CheckpointEvery < 0 {
		return spec, fmt.Errorf("%w: negative checkpoint cadence %d", ErrBadConfig, cfg.CheckpointEvery)
	}
	if cfg.CommandBytes < 0 || cfg.CommandBytes > wire.MaxBatchBytes {
		return spec, fmt.Errorf("%w: CommandBytes %d outside [0, %d]", ErrBadConfig, cfg.CommandBytes, wire.MaxBatchBytes)
	}
	if cfg.Restart != nil && cfg.CheckpointEvery <= 0 {
		return spec, fmt.Errorf("%w: a restarted replica can only catch up via checkpoint state transfer; set CheckpointEvery", ErrBadConfig)
	}
	if (cfg.Attack != 0 || cfg.CkptDir != "") && cfg.CheckpointEvery <= 0 {
		return spec, fmt.Errorf("%w: checkpoint attacks and durable stores need CheckpointEvery", ErrBadConfig)
	}
	if cfg.Attack != 0 && cfg.Byzantine == 0 {
		cfg.Byzantine = 1
	}
	if cfg.Attack == 0 {
		cfg.Byzantine = 0
	}
	if cfg.Byzantine < 0 || cfg.Byzantine > cfg.F {
		return spec, fmt.Errorf("%w: %d attackers outside the fault bound f=%d", ErrBadConfig, cfg.Byzantine, cfg.F)
	}
	if cfg.Coin == 0 {
		cfg.Coin = CoinLocal
	}
	return spec, nil
}

// budget is the run's delivery budget, scaled by Slots and n.
//
// Each slot runs one candidate broadcast and one binary agreement, whose
// every step message is itself a broadcast — n per step, O(n²) deliveries
// each — so a healthy run costs ~n³ deliveries per slot (measured ~7·n³ at
// n=16..64). Budget roughly twice that, floored at the sim default so
// small-n runs keep generous headroom; a run that exhausts it has genuinely
// lost liveness.
//
// Calibration is per *slot*, deliberately not per committed entry: batching
// commits up to Batch entries per slot at the same ~7·n³ delivery cost (the
// per-entry cost falls to ~7·n³/Batch — that is the whole throughput win),
// so scaling the budget by entries would overshoot by Batch×. Pipelining
// does add traffic past the stop frontier — up to Depth-1 proposing turns'
// dissemination is in flight when slot Slots decides — so those slots get
// headroom.
func (cfg SMRConfig) budget() int {
	slots := cfg.Slots
	if cfg.Depth > 1 {
		slots += cfg.Depth - 1
	}
	return max(16*slots*cfg.N*cfg.N*cfg.N, sim.DefaultMaxDeliveries)
}

// smrPlacement is who runs where in one SMR run.
type smrPlacement struct {
	peers    []types.ProcessID
	live     []types.ProcessID // peers minus the crashed trailing ones; live[0] is the reference
	rotation []types.ProcessID // the proposers: live, minus the victim or spare
	victim   types.ProcessID   // the restarted replica (last live), 0 without Restart
	attacker []bool            // per live index
}

// place assigns the replicas their roles. Attackers occupy the live slots
// right after the reference replica: the reference (first live) stays
// honest, so the digest chain reads an honest log; the victim (last live)
// stays honest, so catch-up is tested against the attack rather than run by
// it; and sitting early in the responder rotation means a catching-up
// replica's transfer requests actually reach the attackers instead of always
// being rescued by honest peers first.
func (cfg SMRConfig) place() (smrPlacement, error) {
	peers := types.Processes(cfg.N)
	pl := smrPlacement{peers: peers, live: peers[:cfg.N-cfg.crashed]}
	if len(pl.live) < 2 {
		return pl, fmt.Errorf("%w: %d live replicas", ErrBadConfig, len(pl.live))
	}
	eligible := len(pl.live) // the reference plus the replicas attackers may be: all but a victim or spare
	pl.rotation = pl.live
	if cfg.Restart != nil || cfg.spareRotation {
		eligible--
		pl.rotation = pl.live[:eligible] // the victim must not hold up slots
	}
	if cfg.Restart != nil {
		pl.victim = pl.live[len(pl.live)-1]
	}
	pl.attacker = make([]bool, len(pl.live))
	if cfg.Byzantine > 0 && 1+cfg.Byzantine > eligible {
		return pl, fmt.Errorf("%w: %d attackers leave no honest reference replica", ErrBadConfig, cfg.Byzantine)
	}
	for k := 1; k <= cfg.Byzantine; k++ {
		pl.attacker[k] = true
	}
	return pl, nil
}

// smrSchedParams are the log's schedule parameters where they differ from
// the consensus defaults: its recorded reordering window, and a lag of 60 —
// enough, against 1..20 base delays, to drop the straggler a checkpoint
// interval behind the frontier under load without pushing the run into its
// delivery budget.
var smrSchedParams = SchedParams{ReorderSpan: 24, StragglerLag: 60}

// topology is the log's schedule topology. One honest replica is the slow
// one — the first live replica after the reference and the attackers, so
// never the reference (whose log the digests read) and never an attacker
// (the point is an *honest* replica falling behind the checkpoint window)
// unless every other live replica is an attacker, a cluster with no quorum
// anyway: SchedStraggler lags every link touching it, both directions, and
// SchedRejoin holds its inbox. The two groups are the halves of the live
// replicas. No sender is rushed: the log's attackers run honest replicas
// underneath and attack the checkpoint plane, not the schedule — so
// SchedRushByz is SchedUniform here and SchedAdaptiveRush is SchedAdaptive.
func (pl smrPlacement) topology(cfg SMRConfig) schedTopology {
	half := len(pl.live) / 2
	slow := pl.live[(1+cfg.Byzantine)%len(pl.live)]
	top := schedTopology{n: cfg.N, groupA: pl.live[:half], groupB: pl.live[half:], held: slow}
	for _, q := range pl.live {
		if q != slow {
			top.lagged = append(top.lagged, [2]types.ProcessID{slow, q}, [2]types.ProcessID{q, slow})
		}
	}
	return top
}

// smrRun is the state one RunSMR call threads through its pieces.
type smrRun struct {
	cfg     SMRConfig
	spec    quorum.Spec
	pl      smrPlacement
	cl      *cluster
	audit   *logAuditor
	dealers *coin.DealerSet // nil unless CoinCommon
	cuts    []int           // per-replica certified cut (monotone)
	secret  []byte
}

// RunSMR executes one replicated-log workload.
func RunSMR(cfg SMRConfig) (*SMRResult, error) {
	spec, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	pl, err := cfg.place()
	if err != nil {
		return nil, err
	}
	cl, err := newCluster(newScheduler(cfg.sched, smrSchedParams, pl.topology(cfg)),
		cfg.Seed, cfg.budget(), false, cfg.Telemetry)
	if err != nil {
		return nil, err
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
		return nil, err
	}

	minCommits := 0
	if cfg.Restart != nil {
		minCommits = victimMinCommits
	}
	stop := func() bool {
		return r.audit.arrived == len(pl.live) && r.audit.victimCommitted >= minCommits
	}
	res := &SMRResult{Config: cfg, Committed: make([]int, len(pl.live)), VictimID: pl.victim}
	r.audit.drainAll()
	if res.SimStats, res.Exhausted, err = cl.run(members, stop); err != nil {
		return nil, err
	}
	r.audit.drainAll()
	r.audit.report(res)
	r.harvest(res)
	return res, nil
}

// coinFor returns replica p's per-slot coin constructor.
func (r *smrRun) coinFor(p types.ProcessID) func(int) coin.Coin {
	seed := r.cfg.Seed
	switch r.cfg.Coin {
	case CoinIdeal:
		return func(slot int) coin.Coin { return coin.NewIdeal(seed + int64(slot)) }
	case CoinCommon:
		return func(slot int) coin.Coin { return coin.NewCommon(p, r.pl.peers, r.dealers.For(slot)) }
	default: // CoinLocal
		return func(slot int) coin.Coin { return coin.NewLocal(seed + int64(p)*1000 + int64(slot)) }
	}
}

// replicaConfig is the smr.Config of live replica i, with a fresh state
// machine registered with the auditor.
func (r *smrRun) replicaConfig(i int, p types.ProcessID) smr.Config {
	cfg := r.cfg
	r.audit.machines[i] = smr.NewKVMachine()
	rcfg := smr.Config{
		Me: p, Peers: r.pl.peers, Spec: r.spec,
		NewCoin:  r.coinFor(p),
		Rotation: r.pl.rotation,
		Machine:  r.audit.machines[i],
		Batch:    cfg.Batch,
		Depth:    cfg.Depth,
		Coded:    cfg.Coded,

		Telemetry: r.cl.tele,
	}
	if cfg.Commands > smr.DefaultQueueLimit {
		// The harness preloads every command up front; keep the queue
		// bounded but sized to the workload so a well-formed run never
		// drops (drops would surface in SubmitDropped).
		rcfg.QueueLimit = cfg.Commands
	}
	if cfg.CheckpointEvery > 0 {
		rcfg.CheckpointEvery = cfg.CheckpointEvery
		rcfg.CheckpointSecret = r.secret
		rcfg.MaxPendingCuts = cfg.maxPendingCuts
		if cfg.CkptDir != "" {
			rcfg.Store = ckpt.NewStore(filepath.Join(cfg.CkptDir, fmt.Sprintf("replica-%d.ckpt", p)))
		}
		rcfg.OnCertified = func(cut int) { r.certified(i, cut) }
	}
	return rcfg
}

// certified is replica i's OnCertified hook: tail its log before the
// truncation, then release the per-slot dealers below the cluster's minimum
// certified cut. The dealer set is cluster-shared, so it is released by the
// same low-watermark shape as round-level dealer pruning (and re-creation
// below the floor is deterministic anyway; see coin.DealerSet).
func (r *smrRun) certified(i, cut int) {
	r.audit.drain(i)
	if cut <= r.cuts[i] {
		return
	}
	r.cuts[i] = cut
	if r.dealers != nil {
		r.dealers.ReleaseBelow(slices.Min(r.cuts))
	}
}

// xPad is the filler commandsFor pads commands with, a run at a time.
var xPad = strings.Repeat("x", 256)

// commandsFor is the workload replica p preloads: command c is "set
// k<p>-<c> v<p>-<c>", padded with x to CommandBytes. The padding is
// deterministic filler in the value field: the command still parses as a KV
// set, just with a body-sized value. The commands are substrings of one
// string built at its exact size, so a replica's workload is two
// allocations, not one or three per command.
func (r *smrRun) commandsFor(p types.ProcessID) []string {
	var buf [64]byte
	head := func(c int) []byte {
		b := append(buf[:0], "set k"...)
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, " v"...)
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, '-')
		return strconv.AppendInt(b, int64(c), 10)
	}
	size := func(c int) int { return max(len(head(c)), r.cfg.CommandBytes) }
	total := 0
	for c := range r.cfg.Commands {
		total += size(c)
	}
	var all strings.Builder
	all.Grow(total)
	for c := range r.cfg.Commands {
		h := head(c)
		all.Write(h)
		for pad := r.cfg.CommandBytes - len(h); pad > 0; pad -= len(xPad) {
			all.WriteString(xPad[:min(pad, len(xPad))])
		}
	}
	rest := all.String()
	cmds := make([]string, r.cfg.Commands)
	for c := range cmds {
		n := size(c)
		cmds[c], rest = rest[:n], rest[n:]
	}
	return cmds
}

// boot builds every live replica — the restart victim behind its kill/revive
// wrapper, the attackers around honest inner replicas, the rest plain — each
// with an observer and its preloaded commands, in the order they start.
func (r *smrRun) boot() ([]sim.Node, error) {
	members := make([]sim.Node, 0, len(r.pl.live))
	for i, p := range r.pl.live {
		o := &smrObserver{}
		r.audit.observers[i] = o
		var m member
		switch {
		case p == r.pl.victim:
			o.wrapper = sim.NewRestart(func() sim.Node {
				rep, err := smr.New(r.replicaConfig(i, p))
				if err != nil {
					// The identical config already built every other
					// replica; a failure here is a harness bug, not input.
					panic(fmt.Sprintf("runner: building victim %v: %v", p, err))
				}
				o.rep = rep
				return rep
			}, r.cfg.Restart.CrashAfter, r.cfg.Restart.ReviveAfter)
			m = o.wrapper
		case r.pl.attacker[i]:
			rcfg := r.replicaConfig(i, p)
			// Attackers never persist: their honest inner replica exists to
			// keep the cluster comparable, not to exercise the store.
			rcfg.Store = nil
			byz, err := adversary.NewCkptByzantine(r.cfg.Attack, rcfg)
			if err != nil {
				return nil, err
			}
			// The inner replica commits honestly, so its log joins the
			// cross-replica agreement check like any other.
			o.rep = byz.Inner()
			for _, cmd := range r.commandsFor(p) {
				o.rep.Submit(cmd)
			}
			m = byz
		default:
			rep, err := smr.New(r.replicaConfig(i, p))
			if err != nil {
				return nil, err
			}
			o.rep = rep
			for _, cmd := range r.resume(i, p, r.commandsFor(p)) {
				rep.Submit(cmd)
			}
			m = rep
		}
		members = append(members, &audited{member: m, audit: r.audit, i: i})
	}
	return members, nil
}

// resume handles a replica that booted from its durable record and resumes
// at the cut: the observer tails from there, the reference digest chain
// re-seeds from the restored certificate and machine, and the returned
// command queue drops the proposals the pre-crash self already consumed (so
// re-proposed slots carry the same commands an uninterrupted run would).
func (r *smrRun) resume(i int, p types.ProcessID, cmds []string) []string {
	o := r.audit.observers[i]
	b := o.rep.Base()
	if b == 0 {
		return cmds
	}
	o.next = b
	if i == 0 && !r.audit.reseed(o.rep.LogDigest(), b) {
		o.gapped = true
	}
	// Each pre-cut proposing turn consumed a full take: one command
	// unbatched, up to Batch with batching (the harness's short commands
	// never hit the batch byte caps, so the take is exactly min(Batch,
	// remaining) — mirroring smr's proposalTake).
	take := max(r.cfg.Batch, 1)
	consumed := 0
	for s := 0; s < b; s++ {
		if r.pl.rotation[s%len(r.pl.rotation)] == p {
			consumed += take
		}
	}
	return cmds[min(consumed, len(cmds)):]
}

// harvest reads the end-of-run state of every live replica into the result.
func (r *smrRun) harvest(res *SMRResult) {
	for i, o := range r.audit.observers {
		rep := o.current()
		if rep == nil {
			// The victim was still down at the end (typically the budget ran
			// out mid-outage): its telemetry stays zero rather than reporting
			// the discarded pre-crash instance's state as final, and
			// VictimDown records *why* those fields are zero — Exhausted then
			// tells budget starvation apart from a revival that never came.
			res.VictimDown = true
			continue
		}
		res.Committed[i] = rep.Slot()
		res.CertifiedCut = max(res.CertifiedCut, rep.CertifiedCut())
		res.SubmitDropped += rep.Dropped()
		res.RBCDigestBytes += rep.RBCDigestBytes()
		res.RBCRecords += rep.RBCCompacted()
		res.LogRetained += rep.LogLen()
		res.TotalInstalls += rep.Transfers()
		res.TransferRetries += rep.TransferRetries()
		res.StaleResponses += rep.StaleResponses()
		res.UnverifiableResponses += rep.UnverifiableResponses()
		res.StoreErrors += rep.StoreErrors()
		res.SuffixDivergence += rep.SuffixDivergence()
		res.PendingCutsMax = max(res.PendingCutsMax, rep.PendingCuts())
		if rep.RestoredCut() > 0 {
			res.RestoredCuts++
		}
		if o.wrapper != nil {
			res.Transfers = rep.Transfers()
			res.VictimRetries = rep.TransferRetries()
			res.VictimBase = rep.Base()
			res.VictimSlot = rep.Slot()
			res.VictimLogDigest = rep.LogDigest()
			res.VictimStateDigest, _ = rep.StateDigest()
		}
	}
	if r.dealers != nil {
		res.DealerSlots = r.dealers.DealersRetained()
		res.DealerRounds = r.dealers.RoundsRetained()
	}
}

// RestartCatchupSpec is the canonical restart-catchup scenario: n replicas
// checkpointing every `every` slots, the last live replica killed after a
// third of the expected traffic and revived an interval's worth of
// deliveries later — long past its window, with everything sent in between
// gone — so only certificate-verified state transfer can bring it back.
// The stop condition demands the victim then commits slots itself.
func RestartCatchupSpec(n, slots, every int, seed int64) SMRConfig {
	return SMRConfig{
		N: n, F: quorum.MaxByzantine(n),
		Slots:           slots,
		Commands:        4,
		CheckpointEvery: every,
		Coin:            CoinLocal,
		Seed:            seed,
		Restart: &SMRRestart{
			CrashAfter:  80 * n,
			ReviveAfter: 160 * n,
		},
	}
}
