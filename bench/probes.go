package main

import (
	"errors"
	"fmt"
	"time"

	"paraverser/internal/branch"
	"paraverser/internal/cachesim"
	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/dram"
	"paraverser/internal/emu"
	"paraverser/internal/fault"
	"paraverser/internal/isa"
	"paraverser/internal/isa/fuzz"
	"paraverser/internal/isa/verify"
	"paraverser/internal/noc"
)

// Probe sizes. Effects stream through the consumers in chunks of at most
// chunkEffects, so probe memory stays bounded whatever the window.
const (
	chunkEffects   = 4 << 10
	streamCap      = 1 << 20 // instructions per program when it runs to halt
	blockFuel      = 256
	segmentInsts   = 2000
	checkSegments  = 8
	checkReps      = 5
	newSystemCalls = 20 // spread over the probe programs
	newLLCCalls    = 20
	fuzzProbeSeeds = 128
	faultTrials    = 16
	faultHorizon   = 100_000
)

// checkerFull is the 4×A510@2.0 full-coverage system every probe that
// needs a checked configuration uses.
func checkerFull(freqGHz float64) core.Config {
	return core.DefaultConfig(core.CheckerSpec{CPU: cpu.A510(), FreqGHz: freqGHz, Count: 4})
}

// prober runs the layer probes, each inside a span, and counts the work
// each span did.
type prober struct {
	t     *tracer
	root  int
	count map[string]float64
}

// window is how many instructions a probe runs of w: its warmup plus
// measured window, or up to streamCap when it runs to halt.
func window(w core.Workload) int64 {
	if w.MaxInsts == 0 {
		return streamCap
	}
	return w.WarmupInsts + w.MaxInsts
}

// stream emulates w instruction by instruction and feeds every chunk of
// effects to the timing models, caches, predictor, mesh and DRAM model.
// The consumers' spans nest inside the emulation span, so its self time
// is emulation alone.
func (p *prober) stream(w core.Workload) error {
	m, err := emu.NewMachine(w.Prog, 1)
	if err != nil {
		return err
	}
	main := cpu.MustNewCore(cpu.X2(), 3.0, cpu.ModeMain)
	checker := cpu.MustNewCore(cpu.A510(), 2.0, cpu.ModeChecker)
	l1d := cachesim.MustNew(cpu.X2().L1D)
	l3 := cachesim.MustNew(core.DefaultConfig().L3)
	bp := branch.NewUnit(branch.NewDefaultTAGE(), 13)
	mesh := noc.MustNew(noc.Fast())
	layout := noc.DefaultLayout()
	mem := dram.New(dram.DDR4_2400())
	from := layout.Main(0)

	type memOp struct {
		addr  uint64
		write bool
	}
	type branchOp struct {
		op         isa.Op
		pc, target uint64
		taken      bool
	}
	chunk := make([]emu.Effect, 0, chunkEffects)
	var mems []memOp
	var branches []branchOp
	var l1Miss, l3Miss []uint64
	flowBytes := make([]float64, len(layout.LLCPos))
	id := p.t.begin("emu.step", p.root)
	flush := func() {
		// Gathering each consumer's inputs is the probe's own work: its
		// span keeps it out of emulation's self time and the layers'.
		mems, branches = mems[:0], branches[:0]
		p.t.do("probe.gather", id, func() {
			for i := range chunk {
				e := &chunk[i]
				for k := 0; k < e.NMem; k++ {
					mems = append(mems, memOp{e.Mem[k].Addr, e.Mem[k].Kind == emu.MemStore})
				}
				if e.Class == isa.ClassBranch || e.Class == isa.ClassJump {
					branches = append(branches, branchOp{e.Inst.Op, e.PC, e.NextPC, e.Taken})
				}
			}
		})
		p.t.do("cpu.main", id, func() {
			for i := range chunk {
				main.Consume(&chunk[i])
			}
		})
		p.t.do("cpu.checker", id, func() {
			for i := range chunk {
				checker.Consume(&chunk[i])
			}
		})
		l1Miss, l3Miss = l1Miss[:0], l3Miss[:0]
		p.t.do("cachesim.access", id, func() {
			for _, m := range mems {
				if l1d.Access(m.addr, m.write) {
					continue
				}
				l1Miss = append(l1Miss, m.addr)
				if !l3.Access(m.addr, m.write) {
					l3Miss = append(l3Miss, m.addr)
				}
			}
		})
		p.t.do("branch.resolve", id, func() {
			for _, b := range branches {
				bp.Resolve(b.op, b.pc, b.taken, b.target)
			}
		})
		// The mesh carries each L1D miss to its LLC slice and back under
		// the load offered so far, as the system's flow tracker does.
		p.t.do("noc.latency", id, func() {
			if ns := main.TimeNS(); ns > 0 {
				mesh.ResetLoad()
				for s, pos := range layout.LLCPos {
					mesh.AddFlow(from, pos, flowBytes[s]/ns)
				}
			}
			for _, addr := range l1Miss {
				s := (addr / 64) % uint64(len(layout.LLCPos))
				slice := layout.LLCPos[s]
				mesh.LatencyNS(from, slice, 16)
				mesh.LatencyNS(slice, from, core.LineBytes+8)
				flowBytes[s] += 16 + core.LineBytes + 8
			}
		})
		p.t.do("dram.access", id, func() {
			for _, addr := range l3Miss {
				mem.AccessNS(addr, 0)
			}
		})
		p.count["noc.calls"] += 2 * float64(len(l1Miss))
		p.count["dram.calls"] += float64(len(l3Miss))
		chunk = chunk[:0]
	}
	n, err := m.Run(window(w), func(_ int, e *emu.Effect) error {
		chunk = append(chunk, *e)
		if len(chunk) == cap(chunk) {
			flush()
		}
		return nil
	})
	flush()
	p.t.end(id)
	if err != nil && !errors.Is(err, emu.ErrLimit) {
		return fmt.Errorf("%s: emulation: %w", w.Name, err)
	}
	p.count["emu.insts"] += float64(n)
	p.count["cpu.main_insts"] += float64(main.Insts())
	p.count["cpu.main_cycles"] += main.Cycles()
	p.count["cachesim.accesses"] += float64(l1d.Stats.Accesses + l3.Stats.Accesses)
	p.count["cachesim.l1d_accesses"] += float64(l1d.Stats.Accesses)
	p.count["cachesim.l1d_misses"] += float64(l1d.Stats.Misses)
	p.count["cachesim.l3_accesses"] += float64(l3.Stats.Accesses)
	p.count["cachesim.l3_misses"] += float64(l3.Stats.Misses)
	p.count["branch.lookups"] += float64(bp.Stats.Lookups)
	p.count["branch.mispredicts"] += float64(bp.Stats.Mispredicts)
	p.count["dram.accesses"] += float64(mem.Accesses)
	p.count["dram.row_hits"] += float64(mem.RowHits)
	return nil
}

// blocks runs the same window through the block-compiled executor with
// no consumer, round-robin over the harts.
func (p *prober) blocks(w core.Workload) error {
	m, err := emu.NewMachine(w.Prog, 1)
	if err != nil {
		return err
	}
	batch := make([]emu.Effect, blockFuel)
	limit := window(w)
	var total int64
	p.t.do("emu.blocks", p.root, func() {
		for total < limit && m.Running() && err == nil {
			for h, hart := range m.Harts {
				if hart.Halted {
					continue
				}
				var n int
				n, err = m.RunBlocks(h, batch, blockFuel)
				total += int64(n)
				if err != nil {
					break
				}
			}
		}
	})
	if err != nil {
		return fmt.Errorf("%s: block execution: %w", w.Name, err)
	}
	p.count["emu.block_insts"] += float64(total)
	return nil
}

// check cuts hart 0's first segments and verifies each on the
// block-compiled and the per-instruction checker paths. A clean
// segment must verify clean.
func (p *prober) check(w core.Workload) error {
	m, err := emu.NewMachine(w.Prog, 1)
	if err != nil {
		return err
	}
	hart := m.Harts[0]
	var segs []*core.Segment
	var eff emu.Effect
	for len(segs) < checkSegments && !hart.Halted {
		seg := &core.Segment{Hart: 0, Start: hart.State}
		for seg.Insts < segmentInsts && !hart.Halted {
			if err := m.StepHart(0, &eff); err != nil {
				return fmt.Errorf("%s: cutting segments: %w", w.Name, err)
			}
			seg.Insts++
			if e, ok := core.EntryFromEffect(&eff); ok {
				seg.Entries = append(seg.Entries, e)
			}
		}
		seg.End = hart.State
		segs = append(segs, seg)
	}
	var cs core.CheckScratch
	detections := 0
	verifyAll := func(name string, check func(*core.Segment) core.CheckResult) {
		p.t.do(name, p.root, func() {
			for r := 0; r < checkReps; r++ {
				for _, seg := range segs {
					res := check(seg)
					p.count[name+"_insts"] += float64(res.Insts)
					if res.Detected() {
						detections++
					}
				}
			}
		})
	}
	verifyAll("core.check_blocks", func(s *core.Segment) core.CheckResult {
		return cs.CheckSegmentBlocks(w.Prog, s, false, nil)
	})
	verifyAll("core.check_step", func(s *core.Segment) core.CheckResult {
		return cs.CheckSegment(w.Prog, s, false, nil, nil)
	})
	if detections != 0 {
		return fmt.Errorf("%s: %d clean segment checks raised a detection", w.Name, detections)
	}
	return nil
}

// system times system construction and whole runs: the no-checking
// baseline and 4×A510 without a SpecCache, then 4×A510 recorded at
// 2.0 GHz and replayed at 1.4 GHz through the shared SpecCache sc.
func (p *prober) system(w core.Workload, reps int, sc *core.SpecCache) error {
	ws := []core.Workload{w}
	var err error
	p.t.do("core.new_system", p.root, func() {
		for r := 0; r < reps && err == nil; r++ {
			_, err = core.NewSystem(checkerFull(2.0), ws)
		}
	})
	if err != nil {
		return fmt.Errorf("%s: NewSystem: %w", w.Name, err)
	}
	p.count["core.new_system_calls"] += float64(reps)

	base := core.DefaultConfig()
	base.Checkers = nil
	record, replay := checkerFull(2.0), checkerFull(1.4)
	record.Spec, replay.Spec = sc, sc
	for _, run := range []struct {
		span string
		cfg  core.Config
	}{{"core.run", base}, {"core.run", checkerFull(2.0)}, {"spec.record", record}, {"spec.replay", replay}} {
		var res *core.Result
		p.t.do(run.span, p.root, func() { res, err = core.Run(run.cfg, ws) })
		if err != nil {
			return fmt.Errorf("%s: %s: %w", w.Name, run.span, err)
		}
		if res.Detections() != 0 {
			return fmt.Errorf("%s: %s: clean run raised %d detections", w.Name, run.span, res.Detections())
		}
		p.count[run.span+"_insts"] += float64(res.Metrics.Insts + res.Metrics.InstsChecked)
	}
	return nil
}

func (p *prober) verify(w core.Workload) {
	p.t.do("verify.program", p.root, func() { verify.Verify(w.Prog) })
	p.count["verify.programs"]++
}

// fuzzSeeds runs the fuzzer's pipeline by hand on a seed stream of its
// own: generate, screen, and run the screened programs differentially.
// Any disagreement between engines is a failure.
func (p *prober) fuzzSeeds(seed int64) error {
	x := uint64(seed) ^ 0xF0225EED
	for i := 0; i < fuzzProbeSeeds; i++ {
		x = fuzz.Mix(x)
		var prog *isa.Program
		p.t.do("fuzz.generate", p.root, func() { prog = fuzz.Generate(x, fuzzInsts).Program() })
		var err error
		p.t.do("fuzz.screen", p.root, func() { _, err = fuzz.Screen(prog) })
		p.count["fuzz.seeds"]++
		if err != nil {
			p.count["fuzz.rejects"]++
			continue
		}
		var d *fuzz.Divergence
		p.t.do("fuzz.differential", p.root, func() { d = fuzz.Differential(prog, x) })
		p.count["fuzz.differentials"]++
		if d != nil {
			return fmt.Errorf("fuzz seed %#x: %v", x, d)
		}
	}
	return nil
}

// faultProbe runs a small injection campaign over the probe programs,
// for workloads whose own entry points run none.
func faultProbe(t *tracer, ws []core.Workload, seed int64) (*fault.CampaignResult, time.Duration, error) {
	trial := make([]core.Workload, len(ws))
	for i, w := range ws {
		trial[i] = core.Workload{Name: w.Name, Prog: w.Prog, MaxInsts: min(window(w), faultHorizon)}
	}
	cfg := checkerFull(2.0)
	cfg.Recovery = core.DefaultRecovery()
	var res *fault.CampaignResult
	var err error
	d := t.do("fault.campaign", -1, func() {
		res, err = fault.RunCampaign(fault.CampaignConfig{
			Seed: seed, Trials: faultTrials, Workers: 1, Workloads: trial, Configs: []core.Config{cfg},
		})
	})
	return res, d, err
}

func (p *prober) newLLC() error {
	var err error
	p.t.do("cachesim.new_llc", p.root, func() {
		for i := 0; i < newLLCCalls && err == nil; i++ {
			_, err = cachesim.New(core.DefaultConfig().L3)
		}
	})
	return err
}

// runProbes runs every probe over the evenly spaced probe programs and
// returns the layer metrics they measure.
func runProbes(t *tracer, ws []core.Workload, seed int64) (map[string]float64, error) {
	p := &prober{t: t, count: make(map[string]float64)}
	p.root = t.begin("probes", -1)
	defer t.end(p.root)
	reps := (newSystemCalls + len(ws) - 1) / len(ws)
	sc := core.NewSpecCache()
	for _, w := range ws {
		for _, f := range []func(core.Workload) error{p.stream, p.blocks, p.check} {
			if err := f(w); err != nil {
				return nil, err
			}
		}
		if err := p.system(w, reps, sc); err != nil {
			return nil, err
		}
		p.verify(w)
	}
	if err := p.newLLC(); err != nil {
		return nil, err
	}
	if err := p.fuzzSeeds(seed); err != nil {
		return nil, err
	}

	self := t.selfByName()
	ns := func(name string) float64 { return float64(t.total(name)) }
	c := p.count
	st := sc.Stats()
	m := map[string]float64{
		"emu.step_ns_per_inst":          ratio(float64(self["emu.step"]), c["emu.insts"]),
		"emu.block_ns_per_inst":         ratio(ns("emu.blocks"), c["emu.block_insts"]),
		"cpu.main_ns_per_inst":          ratio(ns("cpu.main"), c["emu.insts"]),
		"cpu.checker_ns_per_inst":       ratio(ns("cpu.checker"), c["emu.insts"]),
		"cpu.main_ipc":                  ratio(c["cpu.main_insts"], c["cpu.main_cycles"]),
		"cachesim.access_ns":            ratio(ns("cachesim.access"), c["cachesim.accesses"]),
		"cachesim.l1d_miss_ratio":       ratio(c["cachesim.l1d_misses"], c["cachesim.l1d_accesses"]),
		"cachesim.llc_miss_ratio":       ratio(c["cachesim.l3_misses"], c["cachesim.l3_accesses"]),
		"cachesim.new_llc_us":           ratio(ns("cachesim.new_llc")/1e3, newLLCCalls),
		"branch.ns_per_branch":          ratio(ns("branch.resolve"), c["branch.lookups"]),
		"branch.mispredict_ratio":       ratio(c["branch.mispredicts"], c["branch.lookups"]),
		"noc.latency_ns_per_call":       ratio(ns("noc.latency"), c["noc.calls"]),
		"dram.access_ns_per_call":       ratio(ns("dram.access"), c["dram.calls"]),
		"dram.row_hit_ratio":            ratio(c["dram.row_hits"], c["dram.accesses"]),
		"core.check_ns_per_inst":        ratio(ns("core.check_blocks"), c["core.check_blocks_insts"]),
		"core.check_step_ns_per_inst":   ratio(ns("core.check_step"), c["core.check_step_insts"]),
		"core.new_system_ms":            ratio(ns("core.new_system")/1e6, c["core.new_system_calls"]),
		"core.run_minst_per_s":          ratio(c["core.run_insts"]*1e3, ns("core.run")),
		"spec.record_s":                 ns("spec.record") / 1e9,
		"spec.replay_s":                 ns("spec.replay") / 1e9,
		"spec.replay_speedup":           ratio(ns("spec.record"), ns("spec.replay")),
		"spec.streams_recorded":         float64(st.StreamsRecorded),
		"spec.streams_replayed":         float64(st.StreamsReplayed),
		"spec.micro_replayed":           float64(st.MicroReplayed),
		"spec.aborts":                   float64(st.SpecAborts),
		"verify.ms_per_program":         ratio(ns("verify.program")/1e6, c["verify.programs"]),
		"fuzz.screen_ms_per_seed":       ratio(ns("fuzz.screen")/1e6, c["fuzz.seeds"]),
		"fuzz.differential_ms_per_seed": ratio(ns("fuzz.differential")/1e6, c["fuzz.differentials"]),
		"fuzz.screen_reject_ratio":      ratio(c["fuzz.rejects"], c["fuzz.seeds"]),
	}
	return m, nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
