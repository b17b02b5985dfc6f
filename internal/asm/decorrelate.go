//paralint:deterministic

package asm

import (
	"fmt"

	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
)

// DecorrelateOptions tunes the structural decorrelation pass.
type DecorrelateOptions struct {
	// DataShiftBytes relocates the variant's data segment by this many
	// bytes. It must be 4KiB-aligned and at least the program's DataSpan
	// so original and variant windows are disjoint. Zero picks an
	// automatic shift that clears the window and sets several address
	// bits in the translated range, so any single stuck address bit
	// between 4KiB and 2MiB granularity lands on decorrelated layouts.
	DataShiftBytes uint64
	// RegSeed seeds the register-file permutations (0 behaves as 1).
	// Different seeds give differently renamed variants of the same
	// program.
	RegSeed uint64
}

// Variant is a structurally decorrelated rewrite of a program: same
// instruction-by-instruction computation, different address-space layout
// and register allocation. A layout-correlated hardware fault (stuck
// address bit, DRAM row fault, a specific physical register) therefore
// corrupts the original and the variant differently, which is what lets
// the divergent checking mode catch fault classes that identical-replay
// lockstep checking structurally cannot.
type Variant struct {
	Prog *isa.Program
	Map  verify.VariantMap
}

// autoShiftPattern is ORed (added — the low 12 bits are clear) onto the
// rounded data span for the automatic shift: bits 12, 14, 16, 18 and 20,
// so the translation flips address bits at every power-of-two stride from
// one page to 1MiB.
const autoShiftPattern = 0x155000

// Decorrelate rewrites p into a structurally decorrelated variant:
//
//   - the data segment moves to DataBase + shift with identical contents,
//     and every LUI materialising an address in the original data window
//     is rebased by the shift (the assembler materialises all data
//     addresses through LUI, so this relocates every statically built
//     pointer);
//   - the integer registers X5..X31 and all FP registers are renamed by a
//     seeded permutation (X0..X4 stay fixed: the zero register, RA, SP,
//     GP and TP are architecturally initialised by number).
//
// The rewrite's correctness obligation — the variant computes the same
// function modulo the layout translation — is discharged two ways: the
// returned map is checked with verify.EquivalentVariant (an independent
// structural proof), and the divergent checker's induction check compares
// every canonicalised address, store datum and end checkpoint at run
// time. The pass assumes LUI constants inside the data window denote
// addresses; workload generators only build data pointers that way, and a
// violation shows up immediately as a fault-free divergent mismatch.
func Decorrelate(p *isa.Program, opts DecorrelateOptions) (*Variant, error) {
	span := isa.DataSpan(p)
	shift := opts.DataShiftBytes
	if shift == 0 {
		shift = span + autoShiftPattern
	}
	if shift%4096 != 0 {
		return nil, fmt.Errorf("asm: decorrelate %q: shift %#x not 4KiB-aligned", p.Name, shift)
	}
	if shift < span {
		return nil, fmt.Errorf("asm: decorrelate %q: shift %#x overlaps the %#x-byte data window", p.Name, shift, span)
	}
	// Keep the relocated window clear of the per-hart stack region.
	stackLo := isa.StackBase - uint64(isa.NumIntRegs)*isa.StackStride
	if end := p.DataBase + shift + span; end > stackLo {
		return nil, fmt.Errorf("asm: decorrelate %q: relocated data end %#x reaches the stack region at %#x", p.Name, end, stackLo)
	}

	m := verify.VariantMap{
		DataShift: shift,
		DataLo:    p.DataBase,
		DataHi:    p.DataBase + span,
	}
	rng := opts.RegSeed
	if rng == 0 {
		rng = 1
	}
	for i := range m.XPerm {
		m.XPerm[i] = isa.Reg(i)
	}
	permute(m.XPerm[int(isa.TP)+1:], &rng)
	for i := range m.FPerm {
		m.FPerm[i] = isa.Reg(i)
	}
	permute(m.FPerm[:], &rng)

	insts := make([]isa.Inst, len(p.Insts))
	for pc, in := range p.Insts {
		roles := isa.RolesOf(in.Op)
		in.Rd = remap(&m, roles.Rd, in.Rd)
		in.Rs1 = remap(&m, roles.Rs1, in.Rs1)
		in.Rs2 = remap(&m, roles.Rs2, in.Rs2)
		if in.Op == isa.OpLUI && in.Imm >= 0 &&
			uint64(in.Imm) >= m.DataLo && uint64(in.Imm) < m.DataHi {
			in.Imm += int64(shift)
		}
		insts[pc] = in
	}

	entries := make([]uint64, len(p.Entries))
	copy(entries, p.Entries)
	v := &Variant{
		Prog: &isa.Program{
			Name:  p.Name + "+dme",
			Insts: insts,
			// Programs are immutable, so the variant shares the
			// original's data segment; only its base address moves.
			Data:     p.Data,
			DataBase: p.DataBase + shift,
			Entries:  entries,
		},
		Map: m,
	}
	if err := v.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("asm: decorrelate %q: %w", p.Name, err)
	}
	if err := verify.EquivalentVariant(p, v.Prog, &v.Map); err != nil {
		return nil, fmt.Errorf("asm: decorrelate %q: %w", p.Name, err)
	}
	return v, nil
}

func remap(m *verify.VariantMap, role isa.RegRole, r isa.Reg) isa.Reg {
	switch role {
	case isa.RoleInt:
		return m.XPerm[r]
	case isa.RoleFP:
		return m.FPerm[r]
	default:
		return r
	}
}

// permute Fisher-Yates-shuffles regs with a splitmix64 stream, advancing
// *state so successive calls draw independent permutations.
func permute(regs []isa.Reg, state *uint64) {
	for i := len(regs) - 1; i > 0; i-- {
		j := int(splitmix64(state) % uint64(i+1))
		regs[i], regs[j] = regs[j], regs[i]
	}
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
