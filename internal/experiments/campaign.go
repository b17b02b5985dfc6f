package experiments

import (
	"paraverser/internal/core"
	"paraverser/internal/fault"
)

// Campaign runs the concurrent fault-injection campaign engine over the
// scale's fault benchmarks: randomized stuck-at / LSQ / transient faults
// against full-coverage and opportunistic checker systems, with the
// closed-loop recovery pipeline (re-replay, forensics, quarantine,
// graceful degradation) live in every trial. Checker-fault trials
// replay each workload's main stream from one priming run and check
// every segment for real (fault.RunCampaign). trials <= 0 picks a
// scale-appropriate default; the base seed makes the verdict tables
// reproducible regardless of workers.
func Campaign(sc Scale, seed int64, trials, workers int) (*fault.CampaignResult, error) {
	if trials <= 0 {
		trials = 4 * sc.FaultTrials
	}
	var workloads []core.Workload
	for _, bench := range sc.faultBenchmarks() {
		prog, err := specProg(bench)
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, core.Workload{
			Name: bench, Prog: prog, MaxInsts: sc.FaultHorizon,
		})
	}

	full := core.DefaultConfig(a510Spec(4, 2.0))
	full.Recovery = core.DefaultRecovery()
	opp := core.DefaultConfig(a510Spec(2, 2.0))
	opp.Mode = core.ModeOpportunistic
	opp.Recovery = core.DefaultRecovery()
	// Campaign trials bypass the engine and its SpecCache (they call
	// fault.RunCampaign, which primes a cache of its own), so the
	// process-wide trace setting is applied here. It does not change
	// trial outcomes.
	applyTrace(&full)
	applyTrace(&opp)

	r, err := fault.RunCampaign(fault.CampaignConfig{
		Seed:      seed,
		Trials:    trials,
		Workers:   workers,
		Workloads: workloads,
		Configs:   []core.Config{full, opp},
	})
	if err != nil {
		return nil, err
	}
	// Campaign trials never pass through the engine's cache, so their
	// merged shard is recorded explicitly; the aggregate stays
	// deterministic because trial metrics depend only on the seed.
	defaultEngine().RecordMetrics(r.RunMetrics())
	return r, nil
}
