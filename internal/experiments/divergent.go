package experiments

import (
	"fmt"
	"sync"

	"paraverser/internal/core"
	"paraverser/internal/fault"
	"paraverser/internal/isa"
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
// the PARSEC entry uses BlackscholesThreads(n, 1). The SPEC programs are
// held on e until the caller calls release.
func (e *Engine) divergentWorkloads(sc Scale) (ws []core.Workload, release func(), err error) {
	names := sc.faultBenchmarks()
	progs, release, err := e.holdSpec(names)
	if err != nil {
		return nil, nil, err
	}
	for i, bench := range names {
		ws = append(ws, core.Workload{Name: bench, Prog: progs[i], MaxInsts: sc.FaultHorizon})
	}
	p := studyProgs(sc)
	ws = append(ws,
		core.Workload{Name: "gap.bfs", Prog: p.bfs, MaxInsts: sc.FaultHorizon},
		core.Workload{Name: "gap.pr", Prog: p.pr, MaxInsts: sc.FaultHorizon},
		core.Workload{Name: "parsec.blackscholes1", Prog: p.bs, MaxInsts: sc.FaultHorizon},
	)
	return ws, release, nil
}

// studyProgCache holds divergentWorkloads' GAP and PARSEC programs, one
// entry per scale. The run cache identifies these programs by pointer,
// so building them once is what lets the divergent and strategies
// studies share their clean runs.
var studyProgCache sync.Map // studyProgKey -> *studyProgEntry

type studyProgKey struct{ gapScale, gapEdgeFactor, parsecScale int }

type studyProgEntry struct {
	once        sync.Once
	bfs, pr, bs *isa.Program
}

func studyProgs(sc Scale) *studyProgEntry {
	v, _ := studyProgCache.LoadOrStore(studyProgKey{sc.GAPScale, sc.GAPEdgeFactor, sc.ParsecScale}, &studyProgEntry{})
	e := v.(*studyProgEntry)
	e.once.Do(func() {
		g := gap.Kronecker(sc.GAPScale, sc.GAPEdgeFactor, 1)
		e.bfs, _ = gap.BFS(g, 0)
		e.pr, _ = gap.PageRank(g, 4)
		e.bs = parsec.BlackscholesThreads(sc.ParsecScale, 1)
	})
	return e
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
// divergent checker pays for using the real memory hierarchy
// (pairedStudy). The campaigns run at the shared engine's worker bound.
func Divergent(sc Scale, seed int64, trials int) (*DivergentResult, error) {
	return divergentStudy(defaultEngine(), sc, seed, trials)
}

func divergentStudy(e *Engine, sc Scale, seed int64, trials int) (*DivergentResult, error) {
	if trials <= 0 {
		trials = 6 * sc.FaultTrials
	}
	runs, err := pairedStudy(e, sc, seed, trials, "divergent",
		"Divergent vs lockstep checking: full-coverage slowdown, 4xA510@2GHz",
		[]core.Strategy{core.StrategyLockstep, core.StrategyDivergent})
	if err != nil {
		return nil, err
	}
	out := &DivergentResult{
		Slowdown:  runs.slowdown,
		Lockstep:  runs.campaigns[core.StrategyLockstep.String()],
		Divergent: runs.campaigns[core.StrategyDivergent.String()],
	}
	for i := range out.Lockstep.Trials {
		lt, dt := &out.Lockstep.Trials[i], &out.Divergent.Trials[i]
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
