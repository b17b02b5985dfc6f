// Package lockstep provides the comparison systems of the evaluation:
// dual-core lockstep (DCLS, the automotive-style homogeneous baseline the
// energy numbers are judged against), and the two prior heterogeneous
// error-detection designs — DSN18 (Ainsworth & Jones 2018, 12 dedicated
// checker cores with a 3KiB dedicated load-store-log SRAM) and ParaDox
// (HPCA 2021, 16 dedicated checker cores) — both remodelled with scalar
// A35-class dedicated cores per section VI of the paper.
package lockstep

import (
	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/power"
)

// DedicatedLSLBytes is the dedicated SRAM log of the prior-work designs.
const DedicatedLSLBytes = 3 << 10

// DSN18 returns the ParaVerser-system configuration that models the
// DSN18 design: 12 dedicated scalar checker cores at 1GHz, a 3KiB
// dedicated LSL (so checkpoints are ~20x more frequent), register
// checkpointing that delays the main core's commit (the overhead the
// paper calls out in section VII-A), and no eager waking (checkers only
// wake once a checkpoint has finished, section IV-H).
func DSN18() core.Config {
	cfg := core.DefaultConfig(core.CheckerSpec{CPU: cpu.A35(), FreqGHz: 1.0, Count: 12})
	cfg.DedicatedLSLBytes = DedicatedLSLBytes
	cfg.CheckpointStallCycles = 40 // copies the register file via the commit path
	cfg.CheckpointDrains = true    // delays commit (section VII-A, "Register Checkpointing")
	cfg.EagerWake = false
	return cfg
}

// ParaDox returns the configuration modelling ParaDox's 16 dedicated
// checker cores. ParaDox added forward-progress optimisations over
// DSN18; its faster checkpointing is modelled by the standard RCU cost.
func ParaDox() core.Config {
	cfg := core.DefaultConfig(core.CheckerSpec{CPU: cpu.A35(), FreqGHz: 1.0, Count: 16})
	cfg.DedicatedLSLBytes = DedicatedLSLBytes
	cfg.CheckpointStallCycles = 8
	cfg.EagerWake = false
	return cfg
}

// DCLS returns the dual-core-lockstep comparison: one identical X2 at
// full frequency duplicating every instruction cycle-for-cycle. Within
// this repository's framework it is the homogeneous 1xX2@3GHz checker
// configuration — the paper itself treats that configuration as
// "comparable to dual-core lockstep" for energy (section VII-E).
func DCLS() core.Config {
	return core.DefaultConfig(core.CheckerSpec{CPU: cpu.X2(), FreqGHz: 3.0, Count: 1})
}

// AreaOverhead returns the silicon overhead of a baseline's dedicated
// checker cores relative to the X2 main core (35% for ParaDox's 16 A35s).
func AreaOverhead(cfg core.Config) float64 {
	var mm2 float64
	for _, spec := range cfg.Checkers {
		if spec.CPU.Name == "A35" { // dedicated cores: added silicon
			mm2 += float64(float64(spec.Count) * spec.CPU.AreaMM2)
		}
	}
	return mm2 / power.AreaX2MM2
}
