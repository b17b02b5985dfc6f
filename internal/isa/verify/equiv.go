//paralint:deterministic

package verify

import (
	"bytes"
	"fmt"

	"paraverser/internal/isa"
)

// VariantMap records how a structurally decorrelated program variant
// relates to its original: a 4KiB-aligned shift of the data segment and a
// role-preserving permutation of each register file. The divergent
// checking mode (DME) uses the map both to translate register checkpoints
// into the variant's layout and to prove, statically, that the variant is
// semantically the original program.
type VariantMap struct {
	// XPerm maps original integer registers to variant registers. It must
	// be a bijection fixing the architecturally initialised registers
	// (X0/Zero, RA, SP, GP, TP), since the loader and the verifier's
	// entry-state assumptions address those by number.
	XPerm [isa.NumIntRegs]isa.Reg
	// FPerm maps original FP registers to variant FP registers (any
	// bijection: no FP register is architecturally special).
	FPerm [isa.NumFPRegs]isa.Reg
	// DataShift is the variant's data-segment relocation in bytes
	// (4KiB-aligned, at least DataSpan so the regions are disjoint).
	DataShift uint64
	// DataLo/DataHi bound the original-layout address window the shift
	// applies to: [DataLo, DataHi) relocates to [DataLo+DataShift,
	// DataHi+DataShift).
	DataLo, DataHi uint64
}

// Validate checks the map's structural invariants.
func (m *VariantMap) Validate() error {
	for _, fixed := range []isa.Reg{isa.Zero, isa.RA, isa.SP, isa.GP, isa.TP} {
		if m.XPerm[fixed] != fixed {
			return fmt.Errorf("verify: variant map moves architectural register x%d to x%d", fixed, m.XPerm[fixed])
		}
	}
	var seenX [isa.NumIntRegs]bool
	for i, r := range m.XPerm {
		if int(r) >= isa.NumIntRegs || seenX[r] {
			return fmt.Errorf("verify: XPerm is not a bijection at x%d -> x%d", i, r)
		}
		seenX[r] = true
	}
	var seenF [isa.NumFPRegs]bool
	for i, r := range m.FPerm {
		if int(r) >= isa.NumFPRegs || seenF[r] {
			return fmt.Errorf("verify: FPerm is not a bijection at f%d -> f%d", i, r)
		}
		seenF[r] = true
	}
	if m.DataShift%4096 != 0 {
		return fmt.Errorf("verify: data shift %#x not 4KiB-aligned", m.DataShift)
	}
	if m.DataHi < m.DataLo {
		return fmt.Errorf("verify: inverted data window [%#x, %#x)", m.DataLo, m.DataHi)
	}
	if m.DataShift != 0 && m.DataShift < m.DataHi-m.DataLo {
		return fmt.Errorf("verify: data shift %#x smaller than the %#x-byte window (regions overlap)",
			m.DataShift, m.DataHi-m.DataLo)
	}
	return nil
}

// inData reports whether an immediate denotes an address in the original
// data window.
func (m *VariantMap) inData(v int64) bool {
	return v >= 0 && uint64(v) >= m.DataLo && uint64(v) < m.DataHi
}

// EquivalentVariant proves that variant is the original program under the
// map: the instruction streams are isomorphic (identical opcodes, sizes
// and control flow; register fields related field-by-field through the
// role-appropriate permutation; LUI immediates in the data window shifted
// by exactly DataShift and all other immediates identical), the data
// segments are byte-identical, and the variant's base is the original's
// base plus the shift. Together with the dynamic induction check this is
// the proof-of-equivalence obligation of the decorrelation pass: any
// program satisfying it computes the original's function modulo the
// layout translation.
func EquivalentVariant(orig, variant *isa.Program, m *VariantMap) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if len(variant.Insts) != len(orig.Insts) {
		return fmt.Errorf("verify: variant has %d insts, original %d", len(variant.Insts), len(orig.Insts))
	}
	if variant.DataBase != orig.DataBase+m.DataShift {
		return fmt.Errorf("verify: variant data base %#x, want %#x",
			variant.DataBase, orig.DataBase+m.DataShift)
	}
	if variant.Data != orig.Data && !bytes.Equal(variant.Data.Bytes(), orig.Data.Bytes()) {
		return fmt.Errorf("verify: variant data segment differs from original")
	}
	if len(variant.Entries) != len(orig.Entries) {
		return fmt.Errorf("verify: variant has %d entries, original %d", len(variant.Entries), len(orig.Entries))
	}
	for i, e := range orig.Entries {
		if variant.Entries[i] != e {
			return fmt.Errorf("verify: variant entry %d at pc %d, original at pc %d", i, variant.Entries[i], e)
		}
	}
	for pc := range orig.Insts {
		o, v := &orig.Insts[pc], &variant.Insts[pc]
		if v.Op != o.Op || v.Size != o.Size {
			return fmt.Errorf("verify: pc %d: variant %s is not a relabeling of %s", pc, v, o)
		}
		roles := isa.RolesOf(o.Op)
		if err := regRelated(m, roles.Rd, o.Rd, v.Rd); err != nil {
			return fmt.Errorf("verify: pc %d (%s): rd: %w", pc, o, err)
		}
		if err := regRelated(m, roles.Rs1, o.Rs1, v.Rs1); err != nil {
			return fmt.Errorf("verify: pc %d (%s): rs1: %w", pc, o, err)
		}
		if err := regRelated(m, roles.Rs2, o.Rs2, v.Rs2); err != nil {
			return fmt.Errorf("verify: pc %d (%s): rs2: %w", pc, o, err)
		}
		wantImm := o.Imm
		if o.Op == isa.OpLUI && m.inData(o.Imm) {
			wantImm = o.Imm + int64(m.DataShift)
		}
		if v.Imm != wantImm {
			return fmt.Errorf("verify: pc %d (%s): variant imm %#x, want %#x", pc, o, v.Imm, wantImm)
		}
	}
	return nil
}

func regRelated(m *VariantMap, role isa.RegRole, o, v isa.Reg) error {
	var want isa.Reg
	switch role {
	case isa.RoleInt:
		want = m.XPerm[o]
	case isa.RoleFP:
		want = m.FPerm[o]
	default:
		want = o // unused field must be untouched
	}
	if v != want {
		return fmt.Errorf("r%d maps to r%d, want r%d", o, v, want)
	}
	return nil
}
