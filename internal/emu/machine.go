package emu

import (
	"errors"
	"fmt"

	"paraverser/internal/isa"
)

// MainEnv is the environment a main core executes against: real shared
// memory, a deterministic per-hart random stream, and a timer derived from
// the retired-instruction count. The determinism matters only for
// reproducible experiments; the checker never re-executes these sources
// (it replays their logged values).
type MainEnv struct {
	Mem *Memory
	rng uint64
}

var _ Env = (*MainEnv)(nil)

// NewMainEnv returns an environment over mem with the given random seed.
func NewMainEnv(mem *Memory, seed uint64) *MainEnv {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &MainEnv{Mem: mem, rng: seed}
}

// Load implements Env.
func (e *MainEnv) Load(addr uint64, size uint8) (uint64, error) { return e.Mem.Load(addr, size) }

// Store implements Env.
func (e *MainEnv) Store(addr uint64, size uint8, val uint64) error {
	return e.Mem.Store(addr, size, val)
}

// Swap implements Env.
func (e *MainEnv) Swap(addr uint64, newVal uint64) (uint64, error) {
	old, err := e.Mem.Load(addr, 8)
	if err != nil {
		return 0, err
	}
	if err := e.Mem.Store(addr, 8, newVal); err != nil {
		return 0, err
	}
	return old, nil
}

// Rand implements Env with an xorshift64* stream.
func (e *MainEnv) Rand() (uint64, error) {
	x := e.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	e.rng = x
	return x * 0x2545F4914F6CDD1D, nil
}

// CycleRead implements Env: the timer is a scaled retired-instruction
// count, which is non-repeatable across runs with different interleaving.
func (e *MainEnv) CycleRead(instret uint64) (uint64, error) { return instret * 3, nil }

// ErrLimit is returned by Machine.Run when the instruction budget expires
// before all harts halt.
var ErrLimit = errors.New("emu: instruction limit reached")

// Machine executes a multi-hart program over shared memory with a
// deterministic round-robin interleaving (quantum instructions per hart
// per turn).
type Machine struct {
	Prog  *isa.Program
	Mem   *Memory
	Harts []*Hart
	Env   []*MainEnv
	dec   []isa.DecInst // Prog's predecode table, resolved once

	// Quantum is how many instructions one hart runs before control
	// rotates. Zero means 1.
	Quantum int

	// Intc, when non-nil, intercepts every hart (fault injection).
	Intc Interceptor
}

// NewMachine loads the program and creates one hart per entry point.
// The machine's memory overlays the program's data segment (see
// NewProgramMemory): setup copies no data bytes, and a run copies only
// the pages it writes, so any number of machines share one program.
func NewMachine(prog *isa.Program, seed uint64) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	mem := NewProgramMemory(prog)
	m := &Machine{Prog: prog, Mem: mem, dec: prog.Decoded()}
	for i, entry := range prog.Entries {
		h := NewHart(i, entry)
		h.State.X[isa.GP] = prog.DataBase
		m.Harts = append(m.Harts, h)
		m.Env = append(m.Env, NewMainEnv(mem, seed+uint64(i)*0x9E37))
	}
	return m, nil
}

// Running reports whether any hart is still live.
func (m *Machine) Running() bool {
	for _, h := range m.Harts {
		if !h.Halted {
			return true
		}
	}
	return false
}

// StepHart executes one instruction on hart i, filling eff.
func (m *Machine) StepHart(i int, eff *Effect) error {
	return m.Harts[i].StepDecoded(m.dec, m.Env[i], m.Intc, eff)
}

// RunBlocks executes up to fuel instructions (further clamped to
// len(batch)) on hart i, filling batch[:n] with one effect per executed
// instruction. It stops early after a HALT retires (the halt's effect
// is the last in the batch) or on an error, in which case, exactly like
// StepHart, the failing instruction does not retire and is not counted.
//
// Deprecated: RunBlocks is a StepHart loop kept for the benchmark
// harness's layer probes; no simulation batches effects. Use StepHart.
func (m *Machine) RunBlocks(i int, batch []Effect, fuel int) (int, error) {
	if fuel > len(batch) {
		fuel = len(batch)
	}
	h := m.Harts[i]
	for n := 0; n < fuel; n++ {
		if err := h.StepDecoded(m.dec, m.Env[i], m.Intc, &batch[n]); err != nil {
			return n, err
		}
		if batch[n].Halted {
			return n + 1, nil
		}
	}
	return fuel, nil
}

// Run interleaves the harts round-robin until every hart halts or limit
// total instructions execute (limit <= 0 means unbounded). For each
// executed instruction it calls sink(hartID, eff); the Effect is reused,
// so sinks must copy anything they retain. Returns the total instructions
// executed and ErrLimit if the budget expired.
func (m *Machine) Run(limit int64, sink func(hart int, eff *Effect) error) (int64, error) {
	quantum := m.Quantum
	if quantum <= 0 {
		quantum = 1
	}
	var eff Effect
	var total int64
	for m.Running() {
		progressed := false
		for i, h := range m.Harts {
			if h.Halted {
				continue
			}
			for q := 0; q < quantum && !h.Halted; q++ {
				if limit > 0 && total >= limit {
					return total, ErrLimit
				}
				if err := m.StepHart(i, &eff); err != nil {
					return total, err
				}
				total++
				progressed = true
				if sink != nil {
					if err := sink(i, &eff); err != nil {
						return total, err
					}
				}
			}
		}
		if !progressed {
			break
		}
	}
	return total, nil
}

// RunProgram is a convenience wrapper: build a machine, run to completion
// (or limit), return total instructions executed.
func RunProgram(prog *isa.Program, limit int64, sink func(hart int, eff *Effect) error) (int64, error) {
	m, err := NewMachine(prog, 1)
	if err != nil {
		return 0, err
	}
	n, err := m.Run(limit, sink)
	if err != nil && !errors.Is(err, ErrLimit) {
		return n, err
	}
	return n, nil
}
