package experiments

import (
	"fmt"

	"paraverser/internal/core"
	"paraverser/internal/fault"
	"paraverser/internal/stats"
	"paraverser/internal/workload/gap"
	"paraverser/internal/workload/parsec"
)

// DivergentResult reports the divergent-vs-lockstep study: the paired
// fault-injection verdicts and the checking-slowdown cost of buying the
// extra coverage.
type DivergentResult struct {
	// Slowdown is the per-workload slowdown table (vs the no-checking
	// baseline) for the lockstep and divergent configurations.
	Slowdown *SeriesResult
	// Lockstep and Divergent are the two campaigns. Equal seeds and
	// single-config lists make trial i inject the identical fault into
	// the identical workload under both, so the verdicts pair exactly.
	Lockstep, Divergent *fault.CampaignResult
	// Escapes counts lockstep trials classified undetected-SDC;
	// Converted counts how many of those the divergent configuration
	// detected — the coverage gain the decorrelation buys.
	Escapes, Converted int
	// Regressed counts trials detected under lockstep but not under
	// divergent (the price of giving up identical replay, e.g. a
	// checker-local fault masked by the variant's register permutation).
	Regressed int
}

// divergentWorkloads assembles a single-hart workload per suite: two
// SPEC benchmarks, two GAP kernels, and the one-thread PARSEC
// blackscholes build. Divergent mode requires single-hart programs (the
// private canonical image cannot track cross-hart stores), which is why
// the PARSEC entry uses BlackscholesThreads(n, 1).
func divergentWorkloads(sc Scale) ([]core.Workload, error) {
	var ws []core.Workload
	for _, bench := range sc.faultBenchmarks() {
		prog, err := specProg(bench)
		if err != nil {
			return nil, err
		}
		ws = append(ws, core.Workload{Name: bench, Prog: prog, MaxInsts: sc.FaultHorizon})
	}
	g := gap.Kronecker(sc.GAPScale, sc.GAPEdgeFactor, 1)
	bfs, _ := gap.BFS(g, 0)
	pr, _ := gap.PageRank(g, 4)
	ws = append(ws,
		core.Workload{Name: "gap.bfs", Prog: bfs, MaxInsts: sc.FaultHorizon},
		core.Workload{Name: "gap.pr", Prog: pr, MaxInsts: sc.FaultHorizon},
		core.Workload{Name: "parsec.blackscholes1", Prog: parsec.BlackscholesThreads(sc.ParsecScale, 1), MaxInsts: sc.FaultHorizon},
	)
	return ws, nil
}

// divergentConfigs returns the matched lockstep and divergent system
// configurations: identical checker pools, identical recovery policy —
// the only difference is the strategy, so every delta in the tables is
// attributable to decorrelation.
func divergentConfigs() (lockstep, divergent core.Config) {
	lockstep = core.DefaultConfig(a510Spec(4, 2.0))
	lockstep.Recovery = core.DefaultRecovery()
	divergent = lockstep
	divergent.Strategy = core.StrategyDivergent
	applyTrace(&lockstep)
	applyTrace(&divergent)
	return lockstep, divergent
}

// divergentMix weights the campaign toward the common-mode memory-path
// faults the study is about (stuck address bit, DRAM row) while keeping
// every checker-local kind in play; the remainder are FU stuck-ats.
func divergentMix() fault.FaultMix {
	return fault.FaultMix{Transient: 0.15, LSQ: 0.15, StuckAddr: 0.25, DRAMRow: 0.25}
}

// Divergent runs the figure-style divergent-vs-lockstep study: paired
// fault-injection campaigns quantifying the coverage gain on common-mode
// memory-path faults, plus fault-free runs quantifying the slowdown the
// divergent checker pays for using the real memory hierarchy. Trial
// seeds derive from the base seed and results land in trial order, so
// the tables are byte-identical at any worker count.
func Divergent(sc Scale, seed int64, trials, workers int) (*DivergentResult, error) {
	return divergentStudy(defaultEngine(), sc, seed, trials, workers)
}

func divergentStudy(e *Engine, sc Scale, seed int64, trials, workers int) (*DivergentResult, error) {
	if trials <= 0 {
		trials = 6 * sc.FaultTrials
	}
	ws, err := divergentWorkloads(sc)
	if err != nil {
		return nil, err
	}
	lockCfg, divCfg := divergentConfigs()

	out := &DivergentResult{Slowdown: &SeriesResult{
		Title:  "Divergent vs lockstep checking: full-coverage slowdown, 4xA510@2GHz",
		Metric: "slowdown % vs no-checking baseline",
		Values: map[string]map[string]float64{"lockstep": {}, "divergent": {}},
		Order:  []string{"lockstep", "divergent"},
	}}

	// Phase 1: fault-free slowdown runs, all in flight at once. The
	// campaign phase below bypasses the engine (private injectors), so
	// kicking these off first keeps the pool busy throughout.
	type slowRun struct{ base, lock, div *Future }
	slowF := make([]slowRun, len(ws))
	for i, w := range ws {
		out.Slowdown.Benchmarks = append(out.Slowdown.Benchmarks, w.Name)
		one := []core.Workload{{Name: w.Name, Prog: w.Prog, MaxInsts: sc.Insts, WarmupInsts: sc.Warmup}}
		slowF[i] = slowRun{
			base: e.Submit(baselineCfg(), one),
			lock: e.Submit(lockCfg, one),
			div:  e.Submit(divCfg, one),
		}
	}

	// Phase 2: the paired campaigns. Same seed, same trial count, same
	// workload pool, one config each: genTrial's per-trial rng draws the
	// identical (fault, workload, checker) stream for both, so trial i
	// is the same experiment under the two strategies.
	mix := divergentMix()
	run := func(cfg core.Config) (*fault.CampaignResult, error) {
		return fault.RunCampaign(fault.CampaignConfig{
			Seed:      seed,
			Trials:    trials,
			Workers:   workers,
			Workloads: ws,
			Configs:   []core.Config{cfg},
			Mix:       &mix,
		})
	}
	if out.Lockstep, err = run(lockCfg); err != nil {
		return nil, fmt.Errorf("divergent study, lockstep campaign: %w", err)
	}
	if out.Divergent, err = run(divCfg); err != nil {
		return nil, fmt.Errorf("divergent study, divergent campaign: %w", err)
	}
	defaultEngine().RecordMetrics(out.Lockstep.RunMetrics())
	defaultEngine().RecordMetrics(out.Divergent.RunMetrics())

	for i := range out.Lockstep.Trials {
		lt, dt := &out.Lockstep.Trials[i], &out.Divergent.Trials[i]
		if lt.Fault != dt.Fault || lt.Workload != dt.Workload {
			return nil, fmt.Errorf("divergent study: trial %d not paired (%v vs %v)", i, lt.Fault, dt.Fault)
		}
		switch {
		case lt.Outcome == fault.UndetectedSDC:
			out.Escapes++
			if dt.Outcome == fault.Detected {
				out.Converted++
			}
		case lt.Outcome == fault.Detected && dt.Outcome != fault.Detected:
			out.Regressed++
		}
	}

	// Phase 3: collect the slowdown table.
	for i, w := range ws {
		baseRes, err := slowF[i].base.Wait()
		if err != nil {
			return nil, fmt.Errorf("divergent study baseline %s: %w", w.Name, err)
		}
		base := baseRes.TimeNS()
		runs := []struct {
			label string
			fut   *Future
		}{{"lockstep", slowF[i].lock}, {"divergent", slowF[i].div}}
		for _, run := range runs {
			label, fut := run.label, run.fut
			res, err := fut.Wait()
			if err != nil {
				return nil, fmt.Errorf("divergent study %s %s: %w", label, w.Name, err)
			}
			if res.Detections() != 0 {
				return nil, fmt.Errorf("divergent study %s: clean %s run raised detections", w.Name, label)
			}
			out.Slowdown.Values[label][w.Name] = (res.TimeNS()/base - 1) * 100
		}
	}
	out.Slowdown.Notes = append(out.Slowdown.Notes,
		"divergent checkers pay the real memory hierarchy for the decorrelated layout; lockstep checkers hit the perfect replay path",
		fmt.Sprintf("lockstep escapes (undetected SDC): %d of %d trials; divergent converted %d of those to detections",
			out.Escapes, trials, out.Converted))
	return out, nil
}

// Table renders the paired outcome split and the slowdown table.
func (r *DivergentResult) Table() string {
	t := stats.NewTable("outcome", "lockstep", "divergent")
	lc, dc := r.Lockstep.Outcomes(), r.Divergent.Outcomes()
	for _, o := range []fault.Outcome{fault.Detected, fault.Masked, fault.Dormant, fault.UndetectedSDC} {
		t.Row(o.String(), lc[o], dc[o])
	}
	out := fmt.Sprintf("Paired fault-injection outcomes (%d trials, identical fault streams)\n%s",
		len(r.Lockstep.Trials), t.String())
	out += fmt.Sprintf("coverage gain: %d/%d lockstep escapes detected under divergent checking; %d regressions\n\n",
		r.Converted, r.Escapes, r.Regressed)
	return out + r.Slowdown.Table()
}
