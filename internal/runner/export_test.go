package runner

import "repro/internal/quorum"

// InputUnanimous0 is the "unanimous-0" input pattern: every correct process
// proposes 0.
const InputUnanimous0 Inputs = 1

// Spec builds the scenario's SMR workload config at a given scale and seed.
func (s CkptScenario) Spec(n, slots, every int, seed int64) SMRConfig {
	cfg := SMRConfig{
		N: n, F: quorum.MaxByzantine(n),
		Slots:           slots,
		Commands:        4,
		CheckpointEvery: every,
		Coin:            CoinLocal,
		Seed:            seed,
		Attack:          s.Attack,
		Byzantine:       1,
		sched:           s.Sched,
		maxPendingCuts:  s.MaxPendingCuts,
	}
	if s.Restart {
		cfg.Restart = &SMRRestart{CrashAfter: 80 * n, ReviveAfter: 160 * n}
	}
	return cfg
}

// Control builds the attack-free control run: identical config minus the
// attacker, whose digests the attack run must reproduce bitwise.
func (s CkptScenario) Control(n, slots, every int, seed int64) SMRConfig {
	cfg := s.Spec(n, slots, every, seed)
	cfg.Attack = 0
	cfg.Byzantine = 0
	return cfg
}
