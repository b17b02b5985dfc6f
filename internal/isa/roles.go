//paralint:deterministic

package isa

// RegRole says which register file (if any) an instruction operand field
// addresses. Program-rewriting passes (register renaming, the divergent
// checker's decorrelation pass) consult it so they only remap fields an
// instruction actually interprets: an unused field is left untouched, and
// integer and floating-point fields are remapped through their own
// permutations.
type RegRole uint8

// Operand roles. The zero value means the field is ignored by the
// opcode.
const (
	RoleNone RegRole = iota
	RoleInt
	RoleFP
)

// OperandRoles gives the role of each register field of an instruction.
type OperandRoles struct {
	Rd, Rs1, Rs2 RegRole
}

// RolesOf returns the operand roles of an opcode. It mirrors the
// emulator's operand interpretation (emu.Hart.StepDecoded) and the static
// verifier's use/def table exactly: SST reads its Rd as the store datum,
// FST's Rs2 is a floating-point source, the FP/int move and convert ops
// cross register files, and control flow only ever touches the integer
// file.
func RolesOf(op Op) OperandRoles {
	switch op {
	case OpADD, OpSUB, OpMUL, OpDIV, OpREM,
		OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA, OpSLT, OpSLTU:
		return OperandRoles{Rd: RoleInt, Rs1: RoleInt, Rs2: RoleInt}
	case OpADDI, OpANDI, OpORI, OpXORI,
		OpSLLI, OpSRLI, OpSRAI, OpSLTI:
		return OperandRoles{Rd: RoleInt, Rs1: RoleInt}
	case OpLUI:
		return OperandRoles{Rd: RoleInt}
	case OpFADD, OpFSUB, OpFMUL, OpFDIV, OpFMIN, OpFMAX:
		return OperandRoles{Rd: RoleFP, Rs1: RoleFP, Rs2: RoleFP}
	case OpFSQRT, OpFNEG, OpFABS:
		return OperandRoles{Rd: RoleFP, Rs1: RoleFP}
	case OpFCVTIF, OpFMVIF:
		return OperandRoles{Rd: RoleFP, Rs1: RoleInt}
	case OpFCVTFI, OpFMVFI:
		return OperandRoles{Rd: RoleInt, Rs1: RoleFP}
	case OpFEQ, OpFLT:
		return OperandRoles{Rd: RoleInt, Rs1: RoleFP, Rs2: RoleFP}
	case OpLD:
		return OperandRoles{Rd: RoleInt, Rs1: RoleInt}
	case OpFLD:
		return OperandRoles{Rd: RoleFP, Rs1: RoleInt}
	case OpST:
		return OperandRoles{Rs1: RoleInt, Rs2: RoleInt}
	case OpFST:
		return OperandRoles{Rs1: RoleInt, Rs2: RoleFP}
	case OpGLD:
		return OperandRoles{Rd: RoleInt, Rs1: RoleInt, Rs2: RoleInt}
	case OpSST:
		return OperandRoles{Rd: RoleInt, Rs1: RoleInt, Rs2: RoleInt}
	case OpSWP:
		return OperandRoles{Rd: RoleInt, Rs1: RoleInt, Rs2: RoleInt}
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return OperandRoles{Rs1: RoleInt, Rs2: RoleInt}
	case OpJAL:
		return OperandRoles{Rd: RoleInt}
	case OpJALR:
		return OperandRoles{Rd: RoleInt, Rs1: RoleInt}
	case OpRAND, OpCYCLE:
		return OperandRoles{Rd: RoleInt}
	default:
		return OperandRoles{} // NOP, PAUSE, HALT
	}
}

// DataSpan returns the byte length of the address window a program's data
// segment occupies for layout-translation purposes: the segment rounded
// up to a 4KiB page plus one slack page, so one-past-the-end pointers
// still translate with the segment.
func DataSpan(p *Program) uint64 {
	return uint64(p.Data.NumPages()+1) * PageSize
}
