package runner_test

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/runner"
)

// ExampleRunSMR kills one of four log replicas a third of the way in and
// revives it with empty state. Checkpoints are cut every 8 slots; the
// revived replica catches up by installing a certified cut through state
// transfer, without replaying the log, and its full-history digest equals
// an uninterrupted replica's. The rerun adds a Byzantine peer that answers
// transfer requests with a stale certificate: the victim retries past it,
// and nothing that commits changes.
func ExampleRunSMR() {
	cfg := runner.RestartCatchupSpec(4, 64, 8, 2024)
	res, err := runner.RunSMR(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("checkpointed log: n=%d, %d slots, cut every %d, p%d killed and revived\n",
		cfg.N, cfg.Slots, cfg.CheckpointEvery, res.VictimID)
	fmt.Printf("cluster:  committed %v slots, certified cut %d, mismatches %d, exhausted %v\n",
		res.Committed, res.CertifiedCut, res.Mismatches, res.Exhausted)
	fmt.Printf("          log digest %016x, state digest %016x (at slot %d)\n",
		res.LogDigest, res.StateDigest, cfg.Slots)
	fmt.Printf("residue:  %d log entries, %d RBC digest records retained cluster-wide (of %d)\n",
		res.LogRetained, res.RBCRecords, cfg.N*cfg.Slots)
	fmt.Printf("victim:   %d state transfer(s); installed certified base %d,\n",
		res.Transfers, res.VictimBase)
	fmt.Printf("          then committed %d slots itself up to frontier %d\n",
		res.VictimCommitted, res.VictimSlot)
	fmt.Printf("          full-history log digest %016x\n", res.VictimLogDigest)

	hostile := cfg
	hostile.Attack = adversary.CkptStaleResponder
	hostile.Byzantine = 1
	hres, err := runner.RunSMR(hostile)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("hostile:  victim saw %d stale response(s), retried past them %d time(s),\n",
		hres.StaleResponses, hres.VictimRetries)
	fmt.Printf("          still installed %d transfer(s) and committed %d slots itself\n",
		hres.Transfers, hres.VictimCommitted)
	fmt.Printf("          log digest %016x, state digest %016x\n", hres.LogDigest, hres.StateDigest)
	// Output:
	// checkpointed log: n=4, 64 slots, cut every 8, p4 killed and revived
	// cluster:  committed [64 64 64 64] slots, certified cut 56, mismatches 0, exhausted false
	//           log digest 71a0c729d4c81424, state digest ad8e2cf2d80b4aef (at slot 64)
	// residue:  32 log entries, 32 RBC digest records retained cluster-wide (of 256)
	// victim:   2 state transfer(s); installed certified base 56,
	//           then committed 48 slots itself up to frontier 64
	//           full-history log digest 71a0c729d4c81424
	// hostile:  victim saw 1 stale response(s), retried past them 1 time(s),
	//           still installed 2 transfer(s) and committed 48 slots itself
	//           log digest 71a0c729d4c81424, state digest ad8e2cf2d80b4aef
}
