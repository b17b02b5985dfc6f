package core

import (
	"fmt"

	"paraverser/internal/cachesim"
	"paraverser/internal/cpu"
	"paraverser/internal/dram"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/noc"
	"paraverser/internal/obs"
)

// Mode selects how the system behaves when checker resources run out
// (section IV-A).
type Mode uint8

// Operating modes. Enums start at one.
const (
	ModeInvalid Mode = iota
	// ModeFullCoverage stalls the main core until a checker frees:
	// every dynamic instruction is checked (hard and soft errors).
	ModeFullCoverage
	// ModeOpportunistic switches logging off when no checker is free and
	// resumes as soon as one is: partial coverage, near-zero slowdown.
	ModeOpportunistic
)

func (m Mode) String() string {
	switch m {
	case ModeFullCoverage:
		return "full-coverage"
	case ModeOpportunistic:
		return "opportunistic"
	default:
		return "invalid"
	}
}

// LaneMain overrides one lane's main-core model.
type LaneMain struct {
	CPU     cpu.Config
	FreqGHz float64
}

// CheckerSpec describes one group of identical checker cores assigned to
// each main core.
type CheckerSpec struct {
	CPU     cpu.Config
	FreqGHz float64
	Count   int
}

// RecoveryConfig controls the closed-loop error-recovery layer: on a
// detection the orchestrator re-replays the failing segment on alternate
// checkers, classifies the event with the forensics taxonomy (section V),
// feeds a live maintenance tracker, and quarantines implicated checkers.
type RecoveryConfig struct {
	// Enabled turns the recovery pipeline on.
	Enabled bool
	// MaxReplays bounds re-replays on alternate checkers per detection
	// (the retry budget; partners are chosen by rotation).
	MaxReplays int
	// ForensicRounds is how many repeat replays Investigate runs on the
	// suspect checker to separate persistent from intermittent faults.
	ForensicRounds int
	// Quarantine governs pool removal, probation and retirement.
	Quarantine QuarantinePolicy
}

// DefaultRecovery returns the recovery policy used by the campaign
// engine: two alternate replays, three forensic rounds, a 50µs base
// quarantine, three clean shadow checks to readmit, retirement after
// three offenses.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{
		Enabled:        true,
		MaxReplays:     2,
		ForensicRounds: 3,
		Quarantine: QuarantinePolicy{
			CooldownNS:      50_000,
			ProbationChecks: 3,
			MaxOffenses:     3,
		},
	}
}

// Validate checks the recovery policy.
func (r *RecoveryConfig) Validate() error {
	if !r.Enabled {
		return nil
	}
	if r.MaxReplays < 0 {
		return fmt.Errorf("core: negative recovery replay budget")
	}
	if r.ForensicRounds < 1 {
		return fmt.Errorf("core: recovery needs at least one forensic round")
	}
	q := r.Quarantine
	if q.CooldownNS <= 0 || q.ProbationChecks < 1 || q.MaxOffenses < 1 {
		return fmt.Errorf("core: invalid quarantine policy %+v", q)
	}
	return nil
}

// Config describes a complete ParaVerser system for one experiment.
type Config struct {
	// Main is the main-core model; every lane (hart) gets one.
	Main        cpu.Config
	MainFreqGHz float64
	// LaneMains, when non-empty, overrides the main-core model per lane
	// (heterogeneous compute, section VII-F). Lanes beyond the slice use
	// Main.
	LaneMains []LaneMain

	// Checkers is each main core's checker pool. Empty means checking
	// disabled (the no-check baseline).
	Checkers []CheckerSpec

	Mode     Mode
	HashMode bool
	// Strategy selects the segment-verification strategy (strategy.go):
	// scheduling granularity, the comparison domain (identical replay or
	// a decorrelated variant), and how checker acquisition couples to
	// main-core commit. The zero value is lockstep.
	// Unlike Spec below, the strategy changes simulated outcomes and is
	// part of the run-cache fingerprint.
	Strategy Strategy
	// EagerWake lets a checker start as log lines arrive rather than at
	// checkpoint end (section IV-H).
	EagerWake bool

	// TimeoutInsts is the checkpoint instruction timeout (5000).
	TimeoutInsts uint64
	// DedicatedLSLBytes, when non-zero, models a fixed dedicated SRAM
	// log (the 3KiB of prior work) instead of repurposing the checker's
	// L1 data cache.
	DedicatedLSLBytes int
	// CheckpointStallCycles is the main-core cost of taking a register
	// checkpoint (Table I: 8-cycle RCU latency).
	CheckpointStallCycles float64
	// CheckpointDrains makes each checkpoint serialise against the
	// committed state, draining the out-of-order window (the DSN18
	// baseline's commit-delaying register checkpointing). ParaVerser's
	// RCU copies at commit without delaying it, so this is false by
	// default and the cost is a front-end bubble.
	CheckpointDrains bool
	// InterruptIntervalInsts injects an interrupt checkpoint every N
	// instructions (0 = none), exercising the section IV-J path.
	InterruptIntervalInsts uint64
	// SamplePeriod, in opportunistic mode, checks only one segment in
	// every SamplePeriod even when checkers are free — the time-based
	// sampling of footnote 18 ([69]): hard faults are still caught over
	// time at a fraction of the checking energy. Zero or one disables
	// sampling.
	SamplePeriod int

	// Spec, when non-nil, enables cross-run functional-stream
	// memoisation over the given cache (spec.go): eligible lanes record
	// their instruction stream from the live segment loop, or replay one
	// recorded earlier instead of emulating. Wall-clock only: every
	// simulated outcome is byte-identical with or without it, enforced
	// by a per-segment continuity check with sequential fallback.
	// Excluded from the run-cache fingerprint.
	Spec   *SpecCache
	NoC    noc.Config
	Layout *noc.Layout
	// LSLTrafficOnNoC, when false, omits log pushes from the mesh load
	// (the "overhead without LSL NoC-traffic impact" bars of figs. 10
	// and 11). Checking still happens.
	LSLTrafficOnNoC bool

	L3      cachesim.Config
	L3HitNS float64
	DRAM    dram.Config

	// CheckerInterceptor, when non-nil, supplies a fault injector for
	// each checker core (the paper injects on the checker side so the
	// main run is undisturbed, section VII-B).
	CheckerInterceptor func(laneID, checkerID int) emu.Interceptor

	// MainInterceptor, when non-nil, supplies a fault injector for each
	// main lane's execution — the common-mode half of a layout-correlated
	// fault model (a stuck address bit or DRAM row fault lives in the
	// shared memory path, so it corrupts the main run too). Runs with a
	// main interceptor always dispatch checks synchronously.
	MainInterceptor func(laneID int) emu.Interceptor

	// Recovery configures the closed-loop error-recovery layer
	// (re-replay, forensics, maintenance tracking, quarantine).
	Recovery RecoveryConfig

	// Seed randomises the workload's non-repeatable instruction streams.
	Seed uint64

	// Trace, when non-nil, receives segment and check events from the run
	// (Chrome trace_event dump, obs.Trace). Observability only: it never
	// influences simulated outcomes, so it is excluded from the run-cache
	// fingerprint.
	Trace *obs.Trace
}

// DefaultConfig returns a full-coverage ParaVerser system with the given
// checker pool per main core and Table I system parameters.
func DefaultConfig(checkers ...CheckerSpec) Config {
	return Config{
		Main:                  cpu.X2(),
		MainFreqGHz:           3.0,
		Checkers:              checkers,
		Mode:                  ModeFullCoverage,
		EagerWake:             true,
		TimeoutInsts:          5000,
		CheckpointStallCycles: 8,
		NoC:                   noc.Fast(),
		Layout:                noc.DefaultLayout(),
		LSLTrafficOnNoC:       true,
		L3: cachesim.Config{Name: "L3", SizeBytes: 8 << 20, Ways: 8,
			LineBytes: 64, HitCycles: 25, MSHRs: 48},
		L3HitNS: 12.5, // 25 cycles at the 2GHz uncore clock
		DRAM:    dram.DDR4_2400(),
		Seed:    1,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Main.Validate(); err != nil {
		return err
	}
	if c.MainFreqGHz <= 0 {
		return fmt.Errorf("core: non-positive main frequency")
	}
	for i, lm := range c.LaneMains {
		if err := lm.CPU.Validate(); err != nil {
			return fmt.Errorf("core: lane %d: %w", i, err)
		}
		if lm.FreqGHz <= 0 || lm.FreqGHz > lm.CPU.NominalGHz+1e-9 {
			return fmt.Errorf("core: lane %d: frequency %.2f out of range", i, lm.FreqGHz)
		}
	}
	if len(c.Checkers) > 0 {
		if c.Mode != ModeFullCoverage && c.Mode != ModeOpportunistic {
			return fmt.Errorf("core: invalid mode %d", c.Mode)
		}
		if c.TimeoutInsts == 0 {
			return fmt.Errorf("core: checking requires a checkpoint timeout (Table I: 5000)")
		}
		for _, spec := range c.Checkers {
			if spec.Count <= 0 {
				return fmt.Errorf("core: checker spec with count %d", spec.Count)
			}
			if err := spec.CPU.Validate(); err != nil {
				return err
			}
			if spec.FreqGHz <= 0 || spec.FreqGHz > spec.CPU.NominalGHz+1e-9 {
				return fmt.Errorf("core: checker %q frequency %.2f out of range", spec.CPU.Name, spec.FreqGHz)
			}
		}
	}
	switch c.Strategy {
	case StrategyLockstep:
	case StrategyDivergent:
		if len(c.Checkers) > 0 {
			if c.Mode != ModeFullCoverage {
				return fmt.Errorf("core: divergent strategy requires full-coverage mode (opportunistic skips would desynchronise the checker's private memory)")
			}
			if c.HashMode {
				return fmt.Errorf("core: divergent strategy is incompatible with Hash Mode (the digest absorbs raw addresses)")
			}
		}
	case StrategyChunkReplay:
		if len(c.Checkers) > 0 {
			if c.Mode != ModeFullCoverage {
				return fmt.Errorf("core: chunk-replay strategy requires full-coverage mode (chunks assume every segment is logged)")
			}
			if c.HashMode {
				return fmt.Errorf("core: chunk-replay strategy is incompatible with Hash Mode (digests close per checkpoint, not per chunk)")
			}
		}
	case StrategyRelaxed:
		if len(c.Checkers) > 0 && c.Mode != ModeFullCoverage {
			return fmt.Errorf("core: relaxed strategy requires full-coverage mode (opportunistic mode already decouples checking from commit)")
		}
	default:
		return fmt.Errorf("core: invalid checking strategy %d", c.Strategy)
	}
	if err := c.Recovery.Validate(); err != nil {
		return err
	}
	if c.Recovery.Enabled && len(c.Checkers) == 0 {
		return fmt.Errorf("core: recovery requires a checker pool")
	}
	if c.Layout == nil {
		return fmt.Errorf("core: nil layout")
	}
	if err := c.Layout.Validate(c.NoC); err != nil {
		return err
	}
	if err := c.L3.Validate(); err != nil {
		return err
	}
	return nil
}

// Workload is one program to run under the system. A program with
// multiple entry points occupies one main core (lane) per hart, sharing
// memory (section IV-J).
type Workload struct {
	Name string
	Prog *isa.Program
	// MaxInsts bounds each hart's measured instructions (0 = run to
	// halt).
	MaxInsts int64
	// WarmupInsts executes (and checks) this many instructions per hart
	// before measurement begins — the analogue of the paper's
	// fast-forward phase. Caches, predictors and checker pipelines stay
	// warm; timing and coverage statistics reset at the boundary.
	WarmupInsts int64
}
