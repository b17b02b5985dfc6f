// Package power implements the McPAT-style energy, DVFS and area
// accounting of section VII-E: per-core-type dynamic energy per
// instruction scaled with V², static power scaled with V, a linear
// voltage/frequency curve for DVFS, ED²P-minimal frequency search, the
// die-shot-derived area table, and the itemised per-core storage overhead
// of the ParaVerser units (1064B).
package power

import (
	"fmt"
	"math"
)

// CoreEnergy is the energy model of one core type. Dynamic energy per
// instruction is quoted at the nominal voltage (max frequency); voltage
// scales linearly with frequency down to VminV.
type CoreEnergy struct {
	Name     string
	EPIpJ    float64 // dynamic energy per instruction at VnomV, picojoules
	StaticMW float64 // leakage at VnomV, milliwatts
	VnomV    float64
	VminV    float64
	FMaxGHz  float64
}

// Energy model presets, calibrated (at 22nm, following the paper's McPAT
// configuration) so the big out-of-order core spends several times the
// energy per instruction of the in-order cores — the heterogeneity the
// whole design exploits.
var (
	// X2Energy models the 5-wide OoO big core.
	X2Energy = CoreEnergy{Name: "X2", EPIpJ: 500, StaticMW: 550, VnomV: 1.00, VminV: 0.60, FMaxGHz: 3.0}
	// A510Energy models the 3-wide in-order little core.
	A510Energy = CoreEnergy{Name: "A510", EPIpJ: 205, StaticMW: 70, VnomV: 0.85, VminV: 0.55, FMaxGHz: 2.0}
	// A35Energy models the scalar dedicated checker core.
	A35Energy = CoreEnergy{Name: "A35", EPIpJ: 105, StaticMW: 12, VnomV: 0.80, VminV: 0.55, FMaxGHz: 1.0}
)

// ModelFor returns the energy model for a core configuration name.
func ModelFor(name string) (CoreEnergy, error) {
	switch name {
	case "X2":
		return X2Energy, nil
	case "A510":
		return A510Energy, nil
	case "A35":
		return A35Energy, nil
	default:
		return CoreEnergy{}, fmt.Errorf("power: no energy model for core %q", name)
	}
}

// VoltageAt returns the supply voltage required for fGHz.
func (ce CoreEnergy) VoltageAt(fGHz float64) float64 {
	if fGHz >= ce.FMaxGHz {
		return ce.VnomV
	}
	if fGHz <= 0 {
		return ce.VminV
	}
	return ce.VminV + (ce.VnomV-ce.VminV)*(fGHz/ce.FMaxGHz)
}

// DynamicJ returns the dynamic energy of executing insts instructions at
// fGHz (CV²f switching energy: per-instruction energy scales with V²).
func (ce CoreEnergy) DynamicJ(insts uint64, fGHz float64) float64 {
	v := ce.VoltageAt(fGHz) / ce.VnomV
	return float64(insts) * ce.EPIpJ * 1e-12 * v * v
}

// StaticJ returns leakage energy over busySec seconds at fGHz. Idle
// periods are power gated (the paper's baseline has "all checker cores
// power gated"), so callers pass busy time only.
func (ce CoreEnergy) StaticJ(busySec, fGHz float64) float64 {
	v := ce.VoltageAt(fGHz) / ce.VnomV
	return ce.StaticMW * 1e-3 * v * busySec
}

// TotalJ is DynamicJ + StaticJ.
func (ce CoreEnergy) TotalJ(insts uint64, busySec, fGHz float64) float64 {
	return ce.DynamicJ(insts, fGHz) + ce.StaticJ(busySec, fGHz)
}

// ED2P combines energy and delay as energy × delay².
func ED2P(energyJ, delayS float64) float64 { return energyJ * delayS * delayS }

// MinimiseED2P evaluates eval at each candidate frequency and returns the
// frequency minimising energy×delay², with its energy and delay. eval
// returns (energyJ, delayS).
func MinimiseED2P(freqsGHz []float64, eval func(fGHz float64) (float64, float64)) (bestF, bestE, bestD float64) {
	best := math.Inf(1)
	for _, f := range freqsGHz {
		e, d := eval(f)
		if m := ED2P(e, d); m < best {
			best, bestF, bestE, bestD = m, f, e, d
		}
	}
	return bestF, bestE, bestD
}

// --- area (section VII-E) ---

// Core areas in mm², from die-shot pixel counts on Samsung 4LPE (X2,
// A510) and the paper's extrapolation of 28nm A35 measurements (16 A35s
// = 0.84mm²).
const (
	AreaX2MM2   = 2.43
	AreaA510MM2 = 0.44
	AreaA35MM2  = 0.84 / 16
)

// DedicatedAreaOverhead returns the area overhead of n dedicated checker
// cores of checkerMM2 each relative to one main core of mainMM2: the 35%
// number for 16 A35s vs one X2.
func DedicatedAreaOverhead(n int, checkerMM2, mainMM2 float64) float64 {
	return float64(n) * checkerMM2 / mainMM2
}

// --- per-core storage overhead (section VII-E) ---

// StorageOverhead itemises the SRAM/flop additions of the ParaVerser
// units on one core.
type StorageOverhead struct {
	LSCBytes      int // 48B for a 2-wide load-store comparator
	LSQParityBits int // 2 parity bits per LQ and SQ entry
	IndexBits     int // 16-bit front-end + 16-bit back-end LSL$ indices
	LSPUBits      int // one cache line of buffering
	LSLTagBits    int // 1 bit per L1D line (the log/content bit)
	TimerBits     int // 13-bit instruction timer
	RCUBytes      int // 776B register checkpoint unit
}

// NewStorageOverhead computes the itemisation for a core with the given
// load-queue/store-queue entries and L1D line count.
func NewStorageOverhead(lqEntries, sqEntries, l1dLines int) StorageOverhead {
	return StorageOverhead{
		LSCBytes:      48,
		LSQParityBits: 2 * (lqEntries + sqEntries),
		IndexBits:     32,
		LSPUBits:      512,
		LSLTagBits:    l1dLines,
		TimerBits:     13,
		RCUBytes:      776,
	}
}

// TotalBytes returns the total storage overhead, rounding bit fields up
// to whole bytes the way the paper's 1064B figure does.
func (s StorageOverhead) TotalBytes() int {
	bits := s.LSQParityBits + s.IndexBits + s.LSPUBits + s.LSLTagBits + s.TimerBits
	return s.LSCBytes + s.RCUBytes + (bits+7)/8
}
