package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/auth"
	"repro/internal/ckpt"
	"repro/internal/coin"
	"repro/internal/gf256"
	"repro/internal/quorum"
	"repro/internal/rbc"
	"repro/internal/rscode"
	"repro/internal/shamir"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/validate"
	"repro/internal/wire"
)

// The kernels: fixed-input loops that call one layer's exported functions
// directly. They do not depend on the workload or the seed, so the same
// kernel reads the same on every workload's traced pass, and a change to one
// layer shows in that layer's kernels and in no other's.

// kernel measures one layer metric within a time budget.
type kernel struct {
	name, unit, better string
	run                func(budget time.Duration) (float64, error)
}

// kernelN and kernelF are the cluster the n-dependent kernels are sized for:
// the smr_* workloads' (k = n−2f = 6 data shards under coding).
const (
	kernelN    = 16
	kernelF    = 5
	kernelBody = 32 << 10 // the coded workload's dissemination body
)

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int

// nsPerCall calls f in batches until the budget is spent (at least three
// batches) and returns the median batch's ns per call.
func nsPerCall(budget time.Duration, batch int, f func()) float64 {
	var perCall []float64
	for begin := time.Now(); len(perCall) < 3 || time.Since(begin) < budget; {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		perCall = append(perCall, float64(time.Since(start))/float64(batch))
	}
	return median(perCall)
}

// timed adapts an infallible loop body to a kernel reporting ns: the median
// batch's ns per call, times scale (1/n when one call does n operations).
func timed(name string, batch int, scale float64, setup func() func()) kernel {
	return kernel{name: name, unit: "ns", better: "lower", run: func(budget time.Duration) (float64, error) {
		return nsPerCall(budget, batch, setup()) * scale, nil
	}}
}

// throughput is timed for a body of the given size, reported in MB/s.
func throughput(name string, bytes int, setup func() func()) kernel {
	return kernel{name: name, unit: "MB/s", better: "higher", run: func(budget time.Duration) (float64, error) {
		return float64(bytes) * 1e3 / nsPerCall(budget, 1, setup()), nil
	}}
}

func kernelSpec() (quorum.Spec, []types.ProcessID) {
	return quorum.MustNew(kernelN, kernelF), types.Processes(kernelN)
}

func randomBytes(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}

var kernels = []kernel{
	{name: "sim.bounce_ns_per_delivery", unit: "ns", better: "lower", run: simBounce},

	throughput("rscode.split_mb_s", kernelBody, func() func() {
		code, body := kernelCode(), randomBytes(kernelBody)
		return func() { sink += len(code.Split(body)) }
	}),
	throughput("rscode.reconstruct_data_mb_s", kernelBody, func() func() { return reconstruct(0) }),
	throughput("rscode.reconstruct_parity_mb_s", kernelBody, func() func() { return reconstruct(kernelN - 6) }),
	timed("gf256.mul_ns", 1, 1.0/(1<<16), func() func() {
		return func() {
			var acc byte
			for i := 0; i < 1<<16; i++ {
				acc ^= gf256.Mul(byte(i), byte(i>>8))
			}
			sink += int(acc)
		}
	}),

	{name: "rbc.instance_ns_plain", unit: "ns", better: "lower", run: func(b time.Duration) (float64, error) {
		return rbcInstance(b, false, strings.Repeat("b", 64))
	}},
	{name: "rbc.instance_ns_coded", unit: "ns", better: "lower", run: func(b time.Duration) (float64, error) {
		return rbcInstance(b, true, string(randomBytes(kernelBody)))
	}},
	{name: "validate.record_ns", unit: "ns", better: "lower", run: validateRecord},

	{name: "coin.common_round_ns", unit: "ns", better: "lower", run: coinRound},
	timed("coin.dealer_share_ns", 64, 1, func() func() {
		spec, _ := kernelSpec()
		dealer, round := coin.NewDealer(spec, 1), 0
		return func() {
			// A fresh round each call: one Shamir dealing plus one share MAC.
			round++
			share, _ := dealer.ShareFor(1, round)
			sink += len(share)
			dealer.Prune(round)
		}
	}),
	timed("shamir.split_ns", 64, 1, func() func() {
		rng := rand.New(rand.NewSource(1))
		return func() {
			shares, _ := shamir.Split([]byte{0xAB}, kernelN, kernelF+1, rng)
			sink += len(shares)
		}
	}),
	timed("shamir.reconstruct_ns", 64, 1, func() func() {
		shares, _ := shamir.Split([]byte{0xAB}, kernelN, kernelF+1, rand.New(rand.NewSource(1)))
		return func() {
			secret, _ := shamir.Reconstruct(shares[:kernelF+1], kernelF+1)
			sink += len(secret)
		}
	}),
	timed("auth.mac_ns", 256, 1, func() func() {
		key, msg := randomBytes(32), randomBytes(32)
		return func() { sink += len(auth.MAC(key, msg)) }
	}),

	timed("ckpt.sign_vector_ns", 16, 1, func() func() {
		_, peers := kernelSpec()
		a := ckpt.NewAuthority([]byte("perf"), 1, peers)
		return func() { sink += len(a.SignVector(kernelCheckpoint)) }
	}),
	timed("ckpt.verify_cert_ns", 16, 1, func() func() {
		spec, peers := kernelSpec()
		a, cert := ckpt.NewAuthority([]byte("perf"), 1, peers), kernelCert()
		return func() {
			if a.VerifyCert(cert, spec) {
				sink++
			}
		}
	}),
	{name: "ckpt.store_save_ms", unit: "ms", better: "lower", run: func(time.Duration) (float64, error) { return storeKernel(true) }},
	{name: "ckpt.store_load_ms", unit: "ms", better: "lower", run: func(time.Duration) (float64, error) { return storeKernel(false) }},

	timed("wire.message_size_ns", 64, 1.0/float64(len(wireCorpus)), func() func() {
		return func() {
			for _, m := range wireCorpus {
				sink += wire.MessageSize(m)
			}
		}
	}),
	timed("wire.append_message_ns", 64, 1.0/float64(len(wireCorpus)), func() func() {
		var buf []byte
		return func() {
			for _, m := range wireCorpus {
				buf, _ = wire.AppendMessage(buf[:0], m)
				sink += len(buf)
			}
		}
	}),
	timed("wire.decode_message_ns", 64, 1.0/float64(len(wireCorpus)), func() func() {
		encoded := make([][]byte, len(wireCorpus))
		for i, m := range wireCorpus {
			encoded[i], _ = wire.EncodeMessage(m)
		}
		return func() {
			for _, buf := range encoded {
				if m, err := wire.DecodeMessage(buf); err == nil {
					sink += int(m.To)
				}
			}
		}
	}),
	timed("wire.batch_encode_ns", 16, 1, func() func() {
		cmds := kernelBatch()
		return func() {
			body, _ := wire.EncodeBatch(cmds)
			sink += len(body)
		}
	}),
	timed("wire.batch_decode_ns", 16, 1, func() func() {
		body, _ := wire.EncodeBatch(kernelBatch())
		return func() {
			cmds, _ := wire.DecodeBatch(body)
			sink += len(cmds)
		}
	}),
}

// bounceNode answers every delivery with one message to its sender, reusing
// its output slice: the cheapest node there is, so a run of two of them
// costs what the simulator's loop, queue, scheduler and Sizer cost.
type bounceNode struct {
	id   types.ProcessID
	peer types.ProcessID // non-zero: opens the rally
	sim.OutBuffer
}

func (n *bounceNode) ID() types.ProcessID { return n.id }
func (n *bounceNode) Done() bool          { return false }
func (n *bounceNode) Start() []types.Message {
	if n.peer == 0 {
		return nil
	}
	return []types.Message{{From: n.id, To: n.peer, Payload: &types.DecidePayload{V: types.One}}}
}
func (n *bounceNode) Deliver(m types.Message) []types.Message {
	return append(n.Take(), types.Message{From: n.id, To: m.From, Payload: m.Payload})
}

func simBounce(budget time.Duration) (float64, error) {
	const deliveries = 200_000
	var runErr error
	ns := nsPerCall(budget, 1, func() {
		net, err := sim.New(sim.Config{
			Scheduler:     sim.UniformDelay{Min: 1, Max: 20},
			Seed:          1,
			MaxDeliveries: deliveries,
			Sizer:         wire.MessageSize,
		})
		if err == nil {
			err = net.Add(&bounceNode{id: 1, peer: 2})
		}
		if err == nil {
			err = net.Add(&bounceNode{id: 2})
		}
		if err == nil {
			_, err = net.Run(nil)
		}
		if err != nil {
			runErr = err
		}
	})
	return ns / deliveries, runErr
}

func kernelCode() *rscode.Code {
	code, err := rscode.New(kernelN, kernelN-2*kernelF)
	if err != nil {
		panic(err) // constants
	}
	return code
}

// reconstruct decodes the kernel body from the six shards starting at first:
// 0 is the systematic fast path, n−6 the all-parity worst case.
func reconstruct(first int) func() {
	code := kernelCode()
	shards := code.Split(randomBytes(kernelBody))
	indices := make([]int, code.K())
	for i := range indices {
		indices[i] = first + i
	}
	return func() {
		body, err := code.Reconstruct(indices, shards[first:first+code.K()], kernelBody)
		if err != nil {
			panic(err) // fixed valid input
		}
		sink += len(body)
	}
}

// rbcInstance measures one reliable-broadcast instance at n=16 end to end —
// the sender's dispersal, then every process's init/echo/ready lifecycle
// through AppendHandle* until all 16 delivered — and returns the ns one
// receiver's share of it costs.
func rbcInstance(budget time.Duration, coded bool, body string) (float64, error) {
	spec, peers := kernelSpec()
	var (
		nodes []*rbc.Broadcaster
		seq   int
		queue []types.Message
		err   error
	)
	ns := nsPerCall(budget, 1, func() {
		if seq%32 == 0 { // bound the retained instances
			nodes = nodes[:0]
			for _, p := range peers {
				if coded {
					nodes = append(nodes, rbc.NewCoded(p, peers, spec))
				} else {
					nodes = append(nodes, rbc.New(p, peers, spec))
				}
			}
		}
		seq++
		delivered := 0
		queue = nodes[0].AppendBroadcast(queue[:0], types.Tag{Seq: seq}, body)
		for head := 0; head < len(queue); head++ {
			m := queue[head]
			var ds []rbc.Delivery
			node := nodes[m.To-1]
			switch p := m.Payload.(type) {
			case *types.RBCPayload:
				queue, ds = node.AppendHandle(queue, m.From, p)
			case *types.RBCFragPayload:
				queue, ds = node.AppendHandleFrag(queue, m.From, p)
			case *types.RBCSumPayload:
				queue, ds = node.AppendHandleSum(queue, m.From, p)
			}
			delivered += len(ds)
		}
		if delivered != len(peers) {
			err = fmt.Errorf("rbc kernel: %d of %d processes delivered", delivered, len(peers))
		}
	})
	return ns / kernelN, err
}

// validateRecord drives one validator through whole rounds of unanimous
// traffic (3n justified messages a round) and returns ns per Record.
func validateRecord(budget time.Duration) (float64, error) {
	spec, peers := kernelSpec()
	var (
		v     *validate.Validator
		round int
		err   error
	)
	ns := nsPerCall(budget, 16, func() {
		if round%64 == 0 {
			v, round = validate.New(spec), 0
		}
		round++
		accepted := 0
		for _, step := range []types.Step{types.Step1, types.Step2, types.Step3} {
			for _, p := range peers {
				accepted += len(v.Record(p, types.StepMessage{Round: round, Step: step, V: types.Zero, D: step == types.Step3}))
			}
		}
		v.PruneBelow(round)
		if accepted != 3*len(peers) {
			err = fmt.Errorf("validate kernel: %d of %d messages justified in round %d", accepted, 3*len(peers), round)
		}
	})
	return ns / float64(3*kernelN), err
}

// coinRound plays one common-coin round over all 16 endpoints and returns
// one endpoint's share: its release, the n shares it verifies, its value.
func coinRound(budget time.Duration) (float64, error) {
	spec, peers := kernelSpec()
	dealer := coin.NewDealer(spec, 1)
	coins := make([]*coin.Common, len(peers))
	for i, p := range peers {
		coins[i] = coin.NewCommon(p, peers, dealer)
	}
	var (
		round int
		err   error
	)
	ns := nsPerCall(budget, 4, func() {
		round++
		for _, c := range coins {
			for _, m := range c.Release(round) {
				coins[m.To-1].HandleShare(m.From, m.Payload.(*types.CoinSharePayload))
			}
		}
		for _, c := range coins {
			if _, ok := c.Value(round); !ok {
				err = fmt.Errorf("coin kernel: round %d not reconstructed", round)
			}
			c.Prune(round)
		}
		dealer.Prune(round)
	})
	return ns / kernelN, err
}

var kernelCheckpoint = ckpt.Checkpoint{Slot: 64, StateDigest: 0x1234, LogDigest: 0x5678}

// kernelCert is kernelCheckpoint certified by the first 2f+1 processes.
func kernelCert() ckpt.Certificate {
	spec, peers := kernelSpec()
	cert := ckpt.Certificate{Checkpoint: kernelCheckpoint}
	for _, p := range peers[:spec.Decide()] {
		cert.Voters = append(cert.Voters, p)
		cert.VoteMACs = append(cert.VoteMACs, ckpt.NewAuthority([]byte("perf"), p, peers).SignVector(kernelCheckpoint))
	}
	return cert
}

// storeKernel saves (fsync included) or loads a record with a 64 KiB
// snapshot ten times and returns the median in ms.
func storeKernel(save bool) (float64, error) {
	cert := kernelCert()
	store := ckpt.NewStore(filepath.Join(outDir, "kernel-store", "replica.ckpt"))
	rec := &ckpt.Record{Cert: types.CkptCertPayload{
		Slot: cert.Slot, StateDigest: cert.StateDigest, LogDigest: cert.LogDigest,
		Voters: cert.Voters, VoteMACs: cert.VoteMACs,
		Snapshot: strings.Repeat("k v\n", 16<<10),
	}}
	if err := store.Save(rec); err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < 10; i++ {
		start := time.Now()
		var err error
		if save {
			err = store.Save(rec)
		} else {
			_, err = store.Load()
		}
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms), nil
}

// wireCorpus holds one message of every top-level payload kind, sized as the
// smr workloads send them (step bodies, a 32 KiB fragment, a 16-peer vote).
var wireCorpus = func() []types.Message {
	step, err := wire.EncodeStep(types.StepMessage{Round: 3, Step: types.Step3, V: types.One, D: true})
	if err != nil {
		panic(err) // constant input
	}
	id := types.InstanceID{Sender: 9, Tag: types.Tag{Round: 3, Step: types.Step3, Seq: 17}}
	macs := make([]string, kernelN)
	for i := range macs {
		macs[i] = strings.Repeat("m", auth.MACSize)
	}
	cert := kernelCert()
	payloads := []types.Payload{
		&types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: step},
		&types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: step},
		&types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: step},
		&types.CoinSharePayload{Round: 3, Share: "\x01\xab", MAC: macs[0]},
		&types.DecidePayload{V: types.One, Instance: 17},
		&types.PlainPayload{Round: 3, Step: types.Step2, V: types.One},
		&types.CkptVotePayload{Slot: 64, StateDigest: 1, LogDigest: 2, MACs: macs},
		&types.CkptRequestPayload{Slot: 64, Nonce: 1},
		&types.CkptCertPayload{Slot: 64, StateDigest: 1, LogDigest: 2, Voters: cert.Voters, VoteMACs: cert.VoteMACs},
		&types.RBCFragPayload{ID: id, Index: 2, TotalLen: kernelBody, Sums: strings.Repeat("s", kernelN*32), Frag: strings.Repeat("f", kernelBody/6+1)},
		&types.RBCSumPayload{ID: id, Sum: strings.Repeat("s", 32)},
	}
	msgs := make([]types.Message, len(payloads))
	for i, p := range payloads {
		msgs[i] = types.Message{From: 9, To: 2, Payload: p}
	}
	return msgs
}()

// kernelBatch is one proposing turn of the coded workload: 16 × 2 KiB.
func kernelBatch() []string {
	cmds := make([]string, 16)
	for i := range cmds {
		cmds[i] = fmt.Sprintf("set k%d ", i) + strings.Repeat("x", 2048)
	}
	return cmds
}
