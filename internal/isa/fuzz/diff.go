package fuzz

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// Divergence describes one differential mismatch: which engine pair (or
// which system configuration) disagreed, and how.
type Divergence struct {
	Stage  string // "step-vs-blocks", "strategy:<name>", "spec"
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("fuzz: %s: %s", d.Stage, d.Detail)
}

// archFingerprint flattens a machine's complete architectural outcome —
// every hart's register file, PC, instret and halt flag plus a hash of
// all resident memory — into a comparable string.
func archFingerprint(m *emu.Machine) string {
	var b strings.Builder
	for i, h := range m.Harts {
		fmt.Fprintf(&b, "hart%d pc=%d instret=%d halted=%v\nX=%x\nF=", i, h.State.PC, h.Instret, h.Halted, h.State.X)
		for _, f := range h.State.F {
			fmt.Fprintf(&b, "%x,", f)
		}
		b.WriteString("\n")
	}
	type pg struct {
		base uint64
		sum  uint64
	}
	var pages []pg
	m.Mem.ForEachPage(func(base uint64, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		pages = append(pages, pg{base, h.Sum64()})
	})
	sort.Slice(pages, func(i, j int) bool { return pages[i].base < pages[j].base })
	for _, p := range pages {
		fmt.Fprintf(&b, "page %#x %016x\n", p.base, p.sum)
	}
	return b.String()
}

// dynLimit caps differential executions: screened programs carry a
// proved MaxInsts, and anything past this is a screening failure, not
// an engine test.
const dynLimit = 1 << 20

// runStep executes the program to halt on the per-instruction engine.
func runStep(p *isa.Program, seed uint64) (*emu.Machine, error) {
	m, err := emu.NewMachine(p, seed)
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(dynLimit, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// runBlocks executes the program to halt on the block-compiled engine.
func runBlocks(p *isa.Program, seed uint64) (*emu.Machine, error) {
	m, err := emu.NewMachine(p, seed)
	if err != nil {
		return nil, err
	}
	batch := make([]emu.Effect, 512)
	total := 0
	for m.Running() {
		progressed := false
		for i, h := range m.Harts {
			if h.Halted {
				continue
			}
			n, err := m.RunBlocks(i, batch, len(batch))
			if err != nil {
				return nil, err
			}
			total += n
			if n > 0 {
				progressed = true
			}
			if total > dynLimit {
				return nil, emu.ErrLimit
			}
		}
		if !progressed {
			return nil, fmt.Errorf("fuzz: block engine made no progress")
		}
	}
	return m, nil
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

// Differential runs one screened program through every engine and
// checker strategy and compares the outcomes. It returns nil when all
// engines agree and every checker verdict is clean, or the first
// divergence found. seed feeds the per-hart RAND streams identically in
// every engine.
func Differential(p *isa.Program, seed uint64) *Divergence {
	// 1. Per-instruction vs block-compiled functional engines: the full
	// architectural outcome must be byte-identical.
	stepM, err := runStep(p, seed)
	if err != nil {
		return &Divergence{Stage: "step", Detail: err.Error()}
	}
	blockM, err := runBlocks(p, seed)
	if err != nil {
		return &Divergence{Stage: "blocks", Detail: err.Error()}
	}
	stepFP, blockFP := archFingerprint(stepM), archFingerprint(blockM)
	if stepFP != blockFP {
		return &Divergence{Stage: "step-vs-blocks",
			Detail: fmt.Sprintf("architectural state diverged:\n--- step ---\n%s--- blocks ---\n%s", stepFP, blockFP)}
	}
	var refInsts uint64
	for _, h := range stepM.Harts {
		refInsts += h.Instret
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
