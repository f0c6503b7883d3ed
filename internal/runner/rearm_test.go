package runner

import (
	"reflect"
	"testing"
)

// TestRearmedClusterMatchesRun holds a re-armed cluster to a new one: for
// every scheduler family and named adversary, Bracha on the common coin and
// Ben-Or on local coins, one cluster armed for a later seed and re-armed
// for an earlier one returns exactly what Run returns for each seed: every
// Result field, the telemetry sink, and for the Bracha liar the full trace.
// Each arm gets its own sinks, so a result keeps its trace and telemetry
// after the cluster moves on.
func TestRearmedClusterMatchesRun(t *testing.T) {
	seeds := []int64{7, 3}
	for sched := SchedUniform; sched <= SchedAdaptiveRush; sched++ {
		for adv := AdvNone; adv <= AdvCrashMidway; adv++ {
			for _, pc := range []struct {
				p Protocol
				c CoinKind
			}{{ProtocolBracha, CoinCommon}, {ProtocolBenOr, CoinLocal}} {
				cfg := Config{
					N: 4, F: 1, Byzantine: -1,
					Protocol: pc.p, Coin: pc.c, Adversary: adv, Scheduler: sched,
					Inputs: InputRandom, MaxDeliveries: 4000,
					Telemetry: true, Trace: adv == AdvLiar && pc.p == ProtocolBracha,
				}
				run := rearming(cfg)
				var got []*Result
				for _, seed := range seeds {
					res, err := run(seed)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, res)
				}
				for i, seed := range seeds {
					cfg.Seed = seed
					want, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if cfg.Trace && dumpTrace(got[i].Recorder) != dumpTrace(want.Recorder) {
						t.Errorf("%v/%v/%v seed %d: re-armed trace differs from Run's", sched, adv, pc.p, seed)
					}
					got[i].Recorder, want.Recorder = nil, nil
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("%v/%v/%v seed %d: re-armed result differs from Run's\n got %+v\nwant %+v", sched, adv, pc.p, seed, got[i], want)
					}
				}
			}
		}
	}
}
