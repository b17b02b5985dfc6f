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
// scale-appropriate default; workers <= 0 runs at the shared engine's
// worker bound. The base seed makes the verdict tables reproducible
// regardless of workers. The engine holds the programs until the
// campaign returns.
func Campaign(sc Scale, seed int64, trials, workers int) (*fault.CampaignResult, error) {
	if trials <= 0 {
		trials = 4 * sc.FaultTrials
	}
	e := defaultEngine()
	names := sc.faultBenchmarks()
	progs, release, err := e.holdSpec(names)
	if err != nil {
		return nil, err
	}
	defer release()
	workloads := make([]core.Workload, len(names))
	for i, bench := range names {
		workloads[i] = core.Workload{Name: bench, Prog: progs[i], MaxInsts: sc.FaultHorizon}
	}

	full := core.DefaultConfig(a510Spec(4, 2.0))
	full.Recovery = core.DefaultRecovery()
	opp := core.DefaultConfig(a510Spec(2, 2.0))
	opp.Mode = core.ModeOpportunistic
	opp.Recovery = core.DefaultRecovery()
	return e.campaign(fault.CampaignConfig{
		Seed:      seed,
		Trials:    trials,
		Workers:   workers,
		Workloads: workloads,
		Configs:   []core.Config{full, opp},
	})
}

// campaign runs a fault-injection campaign beside the engine: trials
// carry private injectors, so they bypass the run cache and its
// SpecCache (fault.RunCampaign primes a cache of its own). Workers <= 0
// selects the engine's worker bound, the process-wide trace setting is
// applied to every configuration (it does not change trial outcomes),
// and the trials' merged metric shard is folded into the engine's
// aggregate, which stays deterministic because trial metrics depend
// only on the seed.
func (e *Engine) campaign(cc fault.CampaignConfig) (*fault.CampaignResult, error) {
	if cc.Workers <= 0 {
		cc.Workers = e.Workers()
	}
	cc.Configs = append([]core.Config(nil), cc.Configs...)
	for i := range cc.Configs {
		applyTrace(&cc.Configs[i])
	}
	r, err := fault.RunCampaign(cc)
	if err != nil {
		return nil, err
	}
	e.RecordMetrics(r.RunMetrics())
	return r, nil
}
