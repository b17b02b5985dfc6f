package fuzz

import (
	"errors"
	"fmt"

	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
)

// Divergence describes one oracle failure: which stage disagreed, and
// how.
type Divergence struct {
	// Stage is "step" (the reference run failed), "bound" or "memfact"
	// (execution broke a verifier proof), "strategy:<name>" or "spec".
	Stage  string
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("fuzz: %s: %s", d.Stage, d.Detail)
}

// dynLimit caps the reference execution. Screening rejects a proved
// MaxInsts above it, so a run that reaches it has broken its bound.
const dynLimit = 1 << 20

// checkProofs runs the program to halt on the per-instruction engine
// and checks the verifier's proofs against what it did: no hart may
// retire more instructions than the proved MaxInsts ("bound"), and every
// load or store at a PC with a MemFact must fall inside the fact's
// proved address interval ("memfact"; a "first" fact covers Mem[0], a
// "second" fact Mem[1], an "effective" fact every access). It returns
// the instructions retired across all harts.
func checkProofs(p *isa.Program, rep *verify.Report, seed uint64) (uint64, *Divergence) {
	facts := make([][]verify.MemFact, len(p.Insts))
	for _, f := range rep.MemFacts {
		facts[f.PC] = append(facts[f.PC], f)
	}
	m, err := emu.NewMachine(p, seed)
	if err != nil {
		return 0, &Divergence{Stage: "step", Detail: err.Error()}
	}
	_, err = m.Run(dynLimit, func(hart int, eff *emu.Effect) error {
		for _, f := range facts[eff.PC] {
			lo, hi := 0, eff.NMem
			switch f.What {
			case "first":
				hi = min(hi, 1)
			case "second":
				lo = 1
			}
			for i := lo; i < hi; i++ {
				if a := eff.Mem[i].Addr; !f.Addr.Contains(a) {
					return &Divergence{Stage: "memfact",
						Detail: fmt.Sprintf("hart %d pc %d (%s): %s address %#x outside the proved %s", hart, eff.PC, eff.Inst, f.What, a, f.Addr)}
				}
			}
		}
		return nil
	})
	var d *Divergence
	switch {
	case errors.As(err, &d):
		return 0, d
	case errors.Is(err, emu.ErrLimit):
		return 0, &Divergence{Stage: "bound",
			Detail: fmt.Sprintf("still running after %d instructions, proved bound %d per hart", dynLimit, rep.MaxInsts)}
	case err != nil:
		return 0, &Divergence{Stage: "step", Detail: err.Error()}
	}
	var total uint64
	for i, h := range m.Harts {
		if int64(h.Instret) > rep.MaxInsts {
			return 0, &Divergence{Stage: "bound",
				Detail: fmt.Sprintf("hart %d retired %d instructions, proved bound %d", i, h.Instret, rep.MaxInsts)}
		}
		total += h.Instret
	}
	return total, nil
}

// flattenResult mirrors the core package's determinism-test rendering:
// every externally observable statistic of a run, including the metrics
// shard, so byte equality means the whole observable surface matched.
func flattenResult(res *core.Result) string {
	return fmt.Sprintf("lanes=%v\ncheckers=%v\nlink=%v llc=%v\nmetrics=%s",
		res.Lanes, res.CheckersByLane, res.MaxLinkUtilisation, res.AvgLLCExtraNS,
		res.Metrics.String())
}

func checkerPool() core.CheckerSpec {
	return core.CheckerSpec{CPU: cpu.A510(), FreqGHz: 2.0, Count: 2}
}

// sysConfig builds one full-system configuration for the differential
// matrix.
func sysConfig(seed uint64, strat core.Strategy) core.Config {
	cfg := core.DefaultConfig(checkerPool())
	cfg.Seed = seed
	cfg.Strategy = strat
	return cfg
}

// Differential verifies p and runs it through differential. It is the
// entry point for callers that hold no verifier report.
func Differential(p *isa.Program, seed uint64) *Divergence {
	return differential(p, verify.Verify(p), seed)
}

// differential runs one screened program, whose verifier report is rep,
// through the proof oracle and every checker strategy and compares the
// outcomes. It returns nil when every proof holds and every checker
// verdict is clean, or the first divergence found. seed feeds the
// per-hart RAND streams identically in every run.
func differential(p *isa.Program, rep *verify.Report, seed uint64) *Divergence {
	// 1. The verifier's termination bound and address intervals must
	// hold on a real execution.
	refInsts, d := checkProofs(p, rep, seed)
	if d != nil {
		return d
	}

	// 2. Every checker strategy: each run must retire exactly the
	// reference instruction count and raise zero detections (a detection
	// on a fault-free run is a checker false positive; an
	// instruction-count delta is a functional divergence inside the
	// system model). Divergent checking needs single-hart programs,
	// which is all the generator emits.
	ws := []core.Workload{{Name: p.Name, Prog: p}}
	strategies := []struct {
		name  string
		strat core.Strategy
	}{
		{"lockstep", core.StrategyLockstep},
		{"chunk-replay", core.StrategyChunkReplay},
		{"relaxed", core.StrategyRelaxed},
		{"divergent", core.StrategyDivergent},
	}
	for _, s := range strategies {
		if s.strat == core.StrategyDivergent && len(p.Entries) != 1 {
			continue
		}
		res, err := core.Run(sysConfig(seed, s.strat), ws)
		if err != nil {
			return &Divergence{Stage: "strategy:" + s.name, Detail: err.Error()}
		}
		if n := res.Detections(); n != 0 {
			return &Divergence{Stage: "strategy:" + s.name,
				Detail: fmt.Sprintf("%d false detection(s) on a fault-free run", n)}
		}
		if got := res.TotalInsts(); got != refInsts {
			return &Divergence{Stage: "strategy:" + s.name,
				Detail: fmt.Sprintf("retired %d instructions, reference %d", got, refInsts)}
		}
	}

	// 3. SpecCache: a run without the cache, a run recording into a
	// fresh cache, and a run replaying from it must render
	// byte-identically.
	live, err := core.Run(sysConfig(seed, core.StrategyLockstep), ws)
	if err != nil {
		return &Divergence{Stage: "spec", Detail: err.Error()}
	}
	want := flattenResult(live)
	cached := sysConfig(seed, core.StrategyLockstep)
	cached.Spec = core.NewSpecCache()
	for _, run := range []string{"record", "replay"} {
		res, err := core.Run(cached, ws)
		if err != nil {
			return &Divergence{Stage: "spec", Detail: run + ": " + err.Error()}
		}
		if got := flattenResult(res); got != want {
			return &Divergence{Stage: "spec",
				Detail: fmt.Sprintf("%s run diverged from the run without a SpecCache:\n--- live ---\n%s\n--- %s ---\n%s", run, want, run, got)}
		}
	}
	return nil
}
