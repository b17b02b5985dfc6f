// Campaign engine: fleet-scale randomized fault-injection trials
// (stuck-at FU / LSQ-address / transient × workloads × checker configs)
// fanned out across goroutines with deterministic per-trial seeds. Each
// trial runs a full ParaVerser system with the closed-loop recovery
// layer live, and the aggregate reports detection-latency distributions,
// the masked/detected/undetected-SDC split, and quarantine/recovery
// statistics — the SDC-campaign methodology ITHICA and RepTFD apply at
// data-center scale.
//
// A checker-side fault cannot change the main core's instruction
// stream: checkers replay the main's load-store log. So the campaign
// records each workload's main stream once, in an unchecked priming
// run, into a SpecCache every trial shares, and lockstep trials with
// checker-side faults take their main-side effects from it while every
// check still runs for real (core.Config.Spec). Common-mode trials,
// which fault the main core itself, and non-lockstep strategies run
// live. Tables are byte-identical with or without the cache.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"paraverser/internal/core"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/obs"
	"paraverser/internal/stats"
)

// CampaignConfig parameterises one injection campaign. Workload
// programs and config templates are shared read-only across concurrent
// trials; every trial copies its Config value and builds a private
// injector.
type CampaignConfig struct {
	// Seed is the campaign base seed; trial i derives its own seed from
	// it, so the same base seed reproduces the identical verdict table
	// regardless of Workers.
	Seed int64
	// Trials is the number of randomized injection trials.
	Trials int
	// Workers bounds concurrent trials (0 = GOMAXPROCS).
	Workers int
	// Workloads are the programs trials sample from.
	Workloads []core.Workload
	// Configs are the checker-system templates trials sample from; each
	// must have a checker pool. Recovery is forced on.
	Configs []core.Config
	// Mix sets the fault-type fractions. A nil Mix selects DefaultMix;
	// a non-nil Mix is used exactly as given (an explicit zero fraction
	// genuinely disables that fault type), so defaulting is unambiguous.
	Mix *FaultMix
}

// FaultMix is the categorical fault-type distribution one campaign draws
// from. Each field is the fraction of trials injecting that type; the
// remainder (1 - sum) are stuck-at faults on functional-unit outputs.
type FaultMix struct {
	// Transient: a one-shot bit flip on a functional-unit output.
	Transient float64
	// LSQ: a stuck-at bit on load/store effective addresses.
	LSQ float64
	// StuckAddr: a stuck address bit on the shared memory path
	// (common-mode; injected on the main core's traffic).
	StuckAddr float64
	// DRAMRow: a stuck cell bit in one DRAM row (common-mode).
	DRAMRow float64
}

// DefaultMix is the fault-type distribution campaigns use when none is
// given.
func DefaultMix() FaultMix {
	return FaultMix{Transient: 0.25, LSQ: 0.20, StuckAddr: 0.05, DRAMRow: 0.05}
}

// Validate rejects fractions outside [0, 1] or summing past 1, which
// would silently skew RandomFault's categorical draw.
func (m *FaultMix) Validate() error {
	fracs := []struct {
		name string
		v    float64
	}{
		{"Transient", m.Transient},
		{"LSQ", m.LSQ},
		{"StuckAddr", m.StuckAddr},
		{"DRAMRow", m.DRAMRow},
	}
	sum := 0.0
	for _, f := range fracs {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("fault: mix fraction %s = %v outside [0, 1]", f.name, f.v)
		}
		sum += f.v
	}
	if sum > 1 {
		return fmt.Errorf("fault: mix fractions sum to %v > 1", sum)
	}
	return nil
}

// Normalize validates the campaign's fault-type mix and fills the
// remaining defaults in place. A nil Mix becomes DefaultMix; an explicit
// Mix must pass FaultMix.Validate.
func (c *CampaignConfig) Normalize() error {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Mix == nil {
		m := DefaultMix()
		c.Mix = &m
	}
	return c.Mix.Validate()
}

// Validate checks the campaign parameters.
func (c *CampaignConfig) Validate() error {
	if c.Trials <= 0 {
		return fmt.Errorf("fault: campaign needs trials > 0")
	}
	if len(c.Workloads) == 0 {
		return fmt.Errorf("fault: campaign needs workloads")
	}
	if len(c.Configs) == 0 {
		return fmt.Errorf("fault: campaign needs system configs")
	}
	for i := range c.Configs {
		if len(c.Configs[i].Checkers) == 0 {
			return fmt.Errorf("fault: campaign config %d has no checker pool", i)
		}
	}
	return nil
}

// Trial is one generated injection experiment.
type Trial struct {
	Index int
	// Seed drives both the trial generation and the system's
	// non-repeatable instruction streams.
	Seed int64
	// Fault is the injected fault; CheckerID the checker core it lives
	// on (per lane).
	Fault     Fault
	CheckerID int
	// Workload and Config index into the campaign's pools.
	Workload int
	Config   int
}

// TrialResult is one finished trial.
type TrialResult struct {
	Trial
	// WorkloadName labels the sampled program.
	WorkloadName string
	// Outcome is the masked/detected/undetected-SDC classification.
	Outcome Outcome
	// DetectionInst is the main-core instruction count at first
	// detection (-1 when undetected) — the latency metric.
	DetectionInst int64
	// Fires and Activations are the injector's counters.
	Fires, Activations uint64
	// Detections counts flagged segments across lanes.
	Detections int
	// Verdict is the recovery pipeline's forensic classification of the
	// first detection (DiagnosisInvalid when nothing was detected).
	Verdict core.Diagnosis
	// Recovery aggregates the trial's recovery-pipeline activity.
	Recovery core.RecoveryStats
	// Quarantined and Retired report the faulty checker's final
	// standing; DegradedNS the graceful-degradation window.
	Quarantined bool
	Retired     bool
	DegradedNS  float64
	// Metrics is the trial run's observability shard (core.Result.Metrics).
	Metrics *obs.RunMetrics
}

// CampaignResult aggregates a finished campaign. Trials are ordered by
// index, so equal seeds yield byte-identical tables.
type CampaignResult struct {
	Trials []TrialResult
}

// RunCampaign generates cfg.Trials randomized faults and runs each in
// its own ParaVerser system, fanning trials out over cfg.Workers
// goroutines. Trial seeds derive deterministically from cfg.Seed, and
// results slot into a fixed order, so the outcome is independent of
// scheduling.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}

	trials := make([]Trial, cfg.Trials)
	for i := range trials {
		trials[i] = genTrial(&cfg, i)
	}

	spec, err := primeSpec(&cfg)
	if err != nil {
		return nil, err
	}
	results := make([]TrialResult, len(trials))
	errs := make([]error, len(trials))
	parallel(len(trials), cfg.Workers, func(i int) {
		results[i], errs[i] = runTrial(&cfg, trials[i], spec)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return &CampaignResult{Trials: results}, nil
}

// parallel calls f(0..n-1) over at most workers goroutines.
func parallel(n, workers int, f func(i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// primeSpec returns the SpecCache the campaign's trials share, primed
// with every workload's main stream by one unchecked run on
// Configs[0]'s main core, or nil when no config resolves to lockstep
// (only lockstep trials can replay). The priming runs carry no checker,
// injector, recovery or trace, so they touch nothing a trial reports.
func primeSpec(cfg *CampaignConfig) (*core.SpecCache, error) {
	lockstep := false
	for i := range cfg.Configs {
		lockstep = lockstep || cfg.Configs[i].ResolvedStrategy() == core.StrategyLockstep
	}
	if !lockstep {
		return nil, nil
	}
	spec := core.NewSpecCache()
	prime := cfg.Configs[0]
	prime.Checkers = nil
	prime.Recovery = core.RecoveryConfig{}
	prime.CheckerInterceptor, prime.MainInterceptor = nil, nil
	prime.Trace = nil
	prime.Spec = spec
	errs := make([]error, len(cfg.Workloads))
	parallel(len(cfg.Workloads), cfg.Workers, func(i int) {
		w := cfg.Workloads[i]
		if _, err := core.Run(prime, []core.Workload{w}); err != nil {
			errs[i] = fmt.Errorf("fault: priming %s: %w", w.Name, err)
		}
	})
	return spec, errors.Join(errs...)
}

// trialSeed spreads the base seed across trials with a splitmix-style
// step so neighbouring trials decorrelate.
func trialSeed(base int64, i int) int64 {
	x := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x)
}

func genTrial(cfg *CampaignConfig, i int) Trial {
	t := Trial{Index: i, Seed: trialSeed(cfg.Seed, i)}
	rng := rand.New(rand.NewSource(t.Seed))
	t.Config = rng.Intn(len(cfg.Configs))
	t.Workload = rng.Intn(len(cfg.Workloads))
	pool := 0
	for _, spec := range cfg.Configs[t.Config].Checkers {
		pool += spec.Count
	}
	t.CheckerID = rng.Intn(pool)
	fu := make(map[isa.Class]int)
	for class, p := range cfg.Configs[t.Config].Checkers[0].CPU.FUs {
		fu[class] = p.Count
	}
	prog := cfg.Workloads[t.Workload].Prog
	t.Fault = RandomFault(rng, fu, *cfg.Mix, prog.DataBase, isa.DataSpan(prog))
	return t
}

// RandomFault draws one fault from the campaign mix: the categorical
// fractions of mix select transient, LSQ-address, stuck-address-bit or
// DRAM-row faults; the remainder are stuck-at faults on functional-unit
// outputs. dataBase and dataSpan locate the sampled program's data
// segment so memory-path faults land on rows the workload actually
// touches.
func RandomFault(rng *rand.Rand, fuCounts map[isa.Class]int, mix FaultMix, dataBase, dataSpan uint64) Fault {
	r := rng.Float64()
	switch {
	case r < mix.StuckAddr:
		return Fault{
			Kind: StuckAddr,
			// Bits 12–20: above the page offset, so a page-aligned layout
			// shift maps the bit differently between lanes, and low
			// enough that the alias stays near mapped memory.
			Bit:    12 + uint(rng.Intn(9)),
			Stuck1: rng.Intn(2) == 0,
		}
	case r < mix.StuckAddr+mix.DRAMRow:
		const rowShift = 12
		span := dataSpan
		if span == 0 {
			span = 1
		}
		return Fault{
			Kind:     DRAMRow,
			RowShift: rowShift,
			Row:      (dataBase + uint64(rng.Int63n(int64(span)))) >> rowShift,
			Bit:      uint(rng.Intn(64)),
			Stuck1:   rng.Intn(2) == 0,
		}
	case r < mix.StuckAddr+mix.DRAMRow+mix.Transient:
		f := Fault{
			Kind: Transient,
			Bit:  uint(rng.Intn(64)),
			// Fire on an early-ish exercise of the unit so the flip lands
			// inside the detection horizon.
			TransientAt: 1 + uint64(rng.Intn(200)),
		}
		f.Class, f.Units, f.Unit = randomFU(rng, fuCounts)
		return f
	case r < mix.StuckAddr+mix.DRAMRow+mix.Transient+mix.LSQ:
		f := Fault{LSQ: true}
		if rng.Intn(2) == 0 {
			f.Kind = StuckAt1
		} else {
			f.Kind = StuckAt0
		}
		// Keep address faults in the low bits so they stay inside mapped
		// data and perturb behaviour rather than vanishing into unmapped
		// space.
		f.Bit = uint(rng.Intn(16))
		return f
	}
	f := Fault{Bit: uint(rng.Intn(64))}
	if rng.Intn(2) == 0 {
		f.Kind = StuckAt1
	} else {
		f.Kind = StuckAt0
	}
	f.Class, f.Units, f.Unit = randomFU(rng, fuCounts)
	return f
}

// randomFU picks a functional-unit class and unit instance
// deterministically (map iteration order is randomized; sort first).
func randomFU(rng *rand.Rand, fuCounts map[isa.Class]int) (isa.Class, int, int) {
	classes := make([]isa.Class, 0, len(fuCounts))
	for class := range fuCounts {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	class := classes[rng.Intn(len(classes))]
	units := fuCounts[class]
	if units <= 0 {
		units = 1
	}
	return class, units, rng.Intn(units)
}

// runSystem runs one trial's system; tests substitute it to force a
// replay divergence.
var runSystem = core.Run

// runTrial runs trial t, replaying the main core's stream from spec
// where the trial allows it. A replay that fails the cache's continuity
// check has already advanced the trial's injector, so the trial reruns
// once, live, with a fresh one.
func runTrial(cfg *CampaignConfig, t Trial, spec *core.SpecCache) (TrialResult, error) {
	out, err := runTrialOnce(cfg, t, spec)
	if spec != nil && errors.Is(err, core.ErrSpecDiverged) {
		out, err = runTrialOnce(cfg, t, nil)
	}
	return out, err
}

func runTrialOnce(cfg *CampaignConfig, t Trial, spec *core.SpecCache) (TrialResult, error) {
	out := TrialResult{
		Trial:         t,
		WorkloadName:  cfg.Workloads[t.Workload].Name,
		DetectionInst: -1,
	}
	sys := cfg.Configs[t.Config] // private copy of the template
	if !sys.Recovery.Enabled {
		sys.Recovery = core.DefaultRecovery()
	}
	sys.Seed = uint64(t.Seed)
	sys.Spec = spec
	inj, err := NewInjector(t.Fault)
	if err != nil {
		return out, fmt.Errorf("fault: trial %d: %w", t.Index, err)
	}
	if t.Fault.CommonMode() {
		// Shared-memory-path faults afflict the main core's traffic; a
		// lockstep checker replays the identical corruption and cannot
		// see it, a divergent checker's shifted layout can.
		sys.MainInterceptor = func(int) emu.Interceptor { return inj }
	} else {
		sys.CheckerInterceptor = func(_, ckID int) emu.Interceptor {
			if ckID == t.CheckerID {
				return inj
			}
			return nil
		}
	}

	res, err := runSystem(sys, []core.Workload{cfg.Workloads[t.Workload]})
	if err != nil {
		return out, fmt.Errorf("fault: trial %d (%s on %s): %w",
			t.Index, t.Fault, out.WorkloadName, err)
	}

	for i := range res.Lanes {
		lane := &res.Lanes[i]
		out.Detections += lane.Detections
		if lane.FirstDetectionInst >= 0 &&
			(out.DetectionInst < 0 || lane.FirstDetectionInst < out.DetectionInst) {
			out.DetectionInst = lane.FirstDetectionInst
		}
		if out.Verdict == core.DiagnosisInvalid && len(lane.SampleRecoveries) > 0 {
			out.Verdict = lane.SampleRecoveries[0].Verdict
		}
	}
	out.Recovery = res.Recovery()
	out.DegradedNS = res.DegradedNS()
	for _, cks := range res.CheckersByLane {
		for _, ck := range cks {
			if ck.ID != t.CheckerID {
				continue
			}
			switch ck.State {
			case core.CheckerQuarantined, core.CheckerProbation:
				out.Quarantined = true
			case core.CheckerRetired:
				out.Quarantined = true
				out.Retired = true
			}
		}
	}
	out.Fires, out.Activations = inj.Fires, inj.Activations
	out.Outcome = ClassifySDC(inj, out.Detections > 0)
	out.Metrics = res.Metrics
	return out, nil
}

// Latencies returns the detection latencies (in main-core instructions)
// of the detected trials, in trial order.
func (r *CampaignResult) Latencies() []float64 {
	var out []float64
	for i := range r.Trials {
		if r.Trials[i].Outcome == Detected && r.Trials[i].DetectionInst >= 0 {
			out = append(out, float64(r.Trials[i].DetectionInst))
		}
	}
	return out
}

// Outcomes tallies trials per outcome.
func (r *CampaignResult) Outcomes() map[Outcome]int {
	out := make(map[Outcome]int)
	for i := range r.Trials {
		out[r.Trials[i].Outcome]++
	}
	return out
}

// RunMetrics merges every trial's observability shard in trial order.
// Trial seeds and results are scheduling-independent and shard merging
// is commutative integer addition, so the aggregate is byte-identical
// at any Workers setting.
func (r *CampaignResult) RunMetrics() *obs.RunMetrics {
	m := obs.NewRunMetrics()
	for i := range r.Trials {
		m.Merge(r.Trials[i].Metrics)
	}
	return m
}

// Recovery sums recovery-pipeline stats over trials.
func (r *CampaignResult) Recovery() core.RecoveryStats {
	var st core.RecoveryStats
	for i := range r.Trials {
		st.Add(r.Trials[i].Recovery)
	}
	return st
}

// Table renders the campaign summary: the outcome split, the
// detection-latency distribution in instructions, and the
// quarantine/recovery statistics.
func (r *CampaignResult) Table() string {
	n := len(r.Trials)
	counts := r.Outcomes()
	pct := func(c int) string {
		if n == 0 {
			return "0.0%"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(c)/float64(n))
	}
	t := stats.NewTable("metric", "value", "share")
	t.Row("trials", n, "")
	for _, o := range []Outcome{Detected, Masked, Dormant, UndetectedSDC} {
		t.Row(o.String(), counts[o], pct(counts[o]))
	}

	lat := r.Latencies()
	if len(lat) > 0 {
		t.Row("latency p50 (insts)", fmt.Sprintf("%.0f", stats.Percentile(lat, 50)), "")
		t.Row("latency p95 (insts)", fmt.Sprintf("%.0f", stats.Percentile(lat, 95)), "")
		t.Row("latency p99 (insts)", fmt.Sprintf("%.0f", stats.Percentile(lat, 99)), "")
	}

	st := r.Recovery()
	quarantined, retired := 0, 0
	var degradedNS float64
	for i := range r.Trials {
		if r.Trials[i].Quarantined {
			quarantined++
		}
		if r.Trials[i].Retired {
			retired++
		}
		degradedNS += r.Trials[i].DegradedNS
	}
	t.Row("recovery events", st.Events, "")
	t.Row("re-replays", st.Retries, "")
	t.Row("re-verified clean", st.ReplayedClean, "")
	t.Row("verdict checker-persistent", st.CheckerPersistent, "")
	t.Row("verdict checker-intermittent", st.CheckerIntermittent, "")
	t.Row("verdict main-suspected", st.MainSuspected, "")
	t.Row("verdict not-reproduced", st.Unreproduced, "")
	t.Row("trials with quarantine", quarantined, pct(quarantined))
	t.Row("trials with retirement", retired, pct(retired))
	t.Row("probation shadow checks", st.ProbationChecks, "")
	t.Row("probation readmissions", st.Readmissions, "")
	t.Row("degraded-coverage time (µs)", fmt.Sprintf("%.1f", degradedNS/1e3), "")
	return t.String()
}

// TrialTable renders the per-trial verdict table.
func (r *CampaignResult) TrialTable() string {
	t := stats.NewTable("trial", "fault", "workload", "ck", "outcome", "latency", "verdict", "pool")
	for i := range r.Trials {
		tr := &r.Trials[i]
		lat := "-"
		if tr.DetectionInst >= 0 {
			lat = fmt.Sprintf("%d", tr.DetectionInst)
		}
		verdict := "-"
		if tr.Verdict != core.DiagnosisInvalid {
			verdict = tr.Verdict.String()
		}
		pool := "intact"
		switch {
		case tr.Retired:
			pool = "retired"
		case tr.Quarantined:
			pool = "quarantined"
		}
		t.Row(tr.Index, tr.Fault.String(), tr.WorkloadName, tr.CheckerID,
			tr.Outcome.String(), lat, verdict, pool)
	}
	return t.String()
}
