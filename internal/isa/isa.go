//paralint:deterministic

// Package isa defines the instruction set architecture used throughout the
// ParaVerser reproduction: a small 64-bit RISC ISA with integer and
// floating-point arithmetic, sized loads and stores, scatter/gather
// multi-address accesses, an atomic swap, control flow, and the
// non-repeatable instructions (random numbers, cycle-counter reads) whose
// values must be captured in a load-store log for exact replay.
//
// The ISA deliberately contains one representative of every instruction
// class that the paper's load-store-log format distinguishes (section IV-B
// of the paper): plain loads, plain stores, instructions with both a load
// and a store payload (SWP), instructions with more than one base address
// (GLD/SST), and non-repeatable reads.
package isa

import (
	"fmt"
	"sync/atomic"
)

// Reg identifies an architectural register. Integer registers are X0-X31
// (X0 is hard-wired to zero); floating-point registers are F0-F31 and are
// addressed by the same Reg values in FP-class instructions.
type Reg uint8

// NumIntRegs and NumFPRegs give the architectural register file sizes.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// Zero is the hard-wired zero register.
const Zero Reg = 0

// Conventional register aliases used by the assembler and workloads.
const (
	RA Reg = 1 // return address
	SP Reg = 2 // stack pointer
	GP Reg = 3 // global pointer (base of data segment)
	TP Reg = 4 // thread pointer (per-hart scratch)
)

// Op is an opcode.
type Op uint8

// Opcodes. Enums start at one so the zero value is invalid and easy to
// catch in tests.
const (
	OpInvalid Op = iota

	// Integer register-register ALU.
	OpADD
	OpSUB
	OpMUL
	OpDIV // signed; divide by zero yields all-ones (no trap)
	OpREM
	OpAND
	OpOR
	OpXOR
	OpSLL
	OpSRL
	OpSRA
	OpSLT
	OpSLTU

	// Integer register-immediate ALU.
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLLI
	OpSRLI
	OpSRAI
	OpSLTI
	OpLUI // rd = imm << 12

	// Floating point (operands in F registers).
	OpFADD
	OpFSUB
	OpFMUL
	OpFDIV
	OpFSQRT
	OpFMIN
	OpFMAX
	OpFNEG
	OpFABS

	// FP/int conversion and comparison (mixed register files).
	OpFCVTIF // Fd = float64(Xs1)
	OpFCVTFI // Xd = int64(Fs1)
	OpFMVIF  // Fd = bits(Xs1)
	OpFMVFI  // Xd = bits(Fs1)
	OpFEQ    // Xd = Fs1 == Fs2
	OpFLT    // Xd = Fs1 <  Fs2

	// Memory. Effective address is Xs1 + Imm. Size is 1, 2, 4 or 8 bytes.
	OpLD  // Xd   = zero-extended load
	OpST  // mem  = low Size bytes of Xs2
	OpFLD // Fd   = load (Size must be 8)
	OpFST // mem  = Fs2  (Size must be 8)

	// Multi-address memory instructions (scatter/gather class, note 10 of
	// the paper: the LSL entry stores each address, size and data in
	// sequence, lowest address first).
	OpGLD // Xd = mem[Xs1+Imm] + mem[Xs2]  (two loads, one instruction)
	OpSST // mem[Xs1+Imm] = Xd; mem[Xs2] = Xd (two stores, one instruction)

	// Atomic swap: Xd = mem[Xs1]; mem[Xs1] = Xs2. The LSL entry carries
	// first the loaded data then the stored data.
	OpSWP

	// Control flow. Branch target is PC + Imm (instruction-indexed).
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpJAL  // Xd = PC+1; PC += Imm
	OpJALR // Xd = PC+1; PC = Xs1 + Imm

	// Non-repeatable instructions: their results cannot be recomputed on
	// a checker core and must be replayed from the log.
	OpRAND  // Xd = pseudo-random value (per-hart stream)
	OpCYCLE // Xd = retired-instruction count (a timer read)

	// Misc.
	OpNOP
	// OpPAUSE is a spin-wait hint (Arm YIELD/WFE, x86 PAUSE): no
	// architectural effect, but the core's front end idles for tens of
	// cycles, so spin loops burn few instructions while waiting.
	OpPAUSE
	OpHALT

	numOps // sentinel; keep last
)

// Class groups opcodes by the functional unit they occupy and by how the
// load-store log treats them.
type Class uint8

// Instruction classes. Enums start at one.
const (
	ClassInvalid Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassFPAdd // add/sub/min/max/neg/abs/cmp/convert
	ClassFPMul
	ClassFPDiv // div and sqrt
	ClassLoad
	ClassStore
	ClassAtomic // both load and store payloads
	ClassBranch // conditional
	ClassJump   // unconditional
	ClassNonRepeat
	ClassNop

	numClasses // sentinel; keep last
)

// NumClasses is the number of class values including ClassInvalid, sized
// for dense per-class lookup tables (functional-unit pools and the like)
// indexed directly by Class.
const NumClasses = int(numClasses)

var classNames = [NumClasses]string{
	ClassInvalid:   "invalid",
	ClassIntALU:    "int-alu",
	ClassIntMul:    "int-mul",
	ClassIntDiv:    "int-div",
	ClassFPAdd:     "fp-add",
	ClassFPMul:     "fp-mul",
	ClassFPDiv:     "fp-div",
	ClassLoad:      "load",
	ClassStore:     "store",
	ClassAtomic:    "atomic",
	ClassBranch:    "branch",
	ClassJump:      "jump",
	ClassNonRepeat: "non-repeat",
	ClassNop:       "nop",
}

// String names the class for statistics labels and diagnostics.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Inst is a decoded instruction. Programs hold instructions in decoded
// form; Encode/Decode provide the 8-byte binary form used for instruction
// footprint accounting and on-disk representation.
type Inst struct {
	Op   Op
	Rd   Reg
	Rs1  Reg
	Rs2  Reg
	Size uint8 // memory access size in bytes (1, 2, 4, 8)
	Imm  int64
}

// Program is a sequence of instructions plus an initialised data segment.
// PCs are instruction indices; the instruction memory footprint for cache
// modelling is InstBytes per instruction.
type Program struct {
	Name  string
	Insts []Inst
	// Data maps a byte offset from the data-segment base (4KiB-aligned)
	// to initial contents. Emulator memories serve it in place and copy
	// a page only when a run writes it, so Data must not be mutated once
	// a machine exists for the program or a variant sharing it.
	Data     []byte
	DataBase uint64
	// Entry points, one per hart. A single-threaded program has one.
	Entries []uint64

	// dec is the lazily built predecode table (see Decoded). Insts must
	// not be mutated after the first Decoded call.
	dec atomic.Pointer[[]DecInst]
	// blocks is the lazily built basic-block table (see Blocks).
	blocks atomic.Pointer[BlockTable]
}

// InstBytes is the encoded size of one instruction, used for instruction
// cache modelling.
const InstBytes = 8

// CodeBase is the virtual address at which instruction memory begins.
const CodeBase uint64 = 0x10000

// DefaultDataBase is where program data segments are placed unless the
// program specifies otherwise.
const DefaultDataBase uint64 = 0x1000_0000

// StackBase is the top of the per-hart stack region. Hart h's stack
// pointer starts at StackBase - h*StackStride.
const (
	StackBase   uint64 = 0x7000_0000
	StackStride uint64 = 1 << 20
)

// ClassOf returns the class of an opcode.
func ClassOf(op Op) Class {
	switch op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA, OpSLT, OpSLTU,
		OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpSLTI, OpLUI:
		return ClassIntALU
	case OpMUL:
		return ClassIntMul
	case OpDIV, OpREM:
		return ClassIntDiv
	case OpFADD, OpFSUB, OpFMIN, OpFMAX, OpFNEG, OpFABS,
		OpFCVTIF, OpFCVTFI, OpFMVIF, OpFMVFI, OpFEQ, OpFLT:
		return ClassFPAdd
	case OpFMUL:
		return ClassFPMul
	case OpFDIV, OpFSQRT:
		return ClassFPDiv
	case OpLD, OpFLD, OpGLD:
		return ClassLoad
	case OpST, OpFST, OpSST:
		return ClassStore
	case OpSWP:
		return ClassAtomic
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return ClassBranch
	case OpJAL, OpJALR:
		return ClassJump
	case OpRAND, OpCYCLE:
		return ClassNonRepeat
	case OpNOP, OpPAUSE, OpHALT:
		return ClassNop
	default:
		return ClassInvalid
	}
}

// IsMem reports whether the opcode performs any memory access.
func IsMem(op Op) bool {
	switch ClassOf(op) {
	case ClassLoad, ClassStore, ClassAtomic:
		return true
	default:
		return false
	}
}

// IsLogged reports whether the opcode produces a load-store-log entry:
// every memory access plus every non-repeatable instruction.
func IsLogged(op Op) bool {
	c := ClassOf(op)
	return c == ClassLoad || c == ClassStore || c == ClassAtomic || c == ClassNonRepeat
}

// IsBranch reports whether the opcode is any control-flow instruction.
func IsBranch(op Op) bool {
	c := ClassOf(op)
	return c == ClassBranch || c == ClassJump
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op > OpInvalid && op < numOps }

var opNames = map[Op]string{
	OpADD: "add", OpSUB: "sub", OpMUL: "mul", OpDIV: "div", OpREM: "rem",
	OpAND: "and", OpOR: "or", OpXOR: "xor", OpSLL: "sll", OpSRL: "srl",
	OpSRA: "sra", OpSLT: "slt", OpSLTU: "sltu",
	OpADDI: "addi", OpANDI: "andi", OpORI: "ori", OpXORI: "xori",
	OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai", OpSLTI: "slti", OpLUI: "lui",
	OpFADD: "fadd", OpFSUB: "fsub", OpFMUL: "fmul", OpFDIV: "fdiv",
	OpFSQRT: "fsqrt", OpFMIN: "fmin", OpFMAX: "fmax", OpFNEG: "fneg", OpFABS: "fabs",
	OpFCVTIF: "fcvt.f.i", OpFCVTFI: "fcvt.i.f", OpFMVIF: "fmv.f.i", OpFMVFI: "fmv.i.f",
	OpFEQ: "feq", OpFLT: "flt",
	OpLD: "ld", OpST: "st", OpFLD: "fld", OpFST: "fst",
	OpGLD: "gld", OpSST: "sst", OpSWP: "swp",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpBLTU: "bltu", OpBGEU: "bgeu", OpJAL: "jal", OpJALR: "jalr",
	OpRAND: "rand", OpCYCLE: "cycle", OpNOP: "nop", OpPAUSE: "pause", OpHALT: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// String disassembles the instruction.
func (in Inst) String() string {
	switch ClassOf(in.Op) {
	case ClassNop:
		return in.Op.String()
	case ClassLoad, ClassStore, ClassAtomic:
		return fmt.Sprintf("%s.%d r%d, r%d, %d(r%d)", in.Op, in.Size, in.Rd, in.Rs2, in.Imm, in.Rs1)
	case ClassBranch:
		return fmt.Sprintf("%s r%d, r%d, %+d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case ClassJump:
		return fmt.Sprintf("%s r%d, r%d, %+d", in.Op, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
	}
}

// NumInsts returns the instruction count of the program.
func (p *Program) NumInsts() int { return len(p.Insts) }

// CodeBytes returns the instruction-memory footprint of the program.
func (p *Program) CodeBytes() int { return len(p.Insts) * InstBytes }

// Validate checks structural invariants of the program: all opcodes
// defined, all branch targets in range, memory sizes legal, and at least
// one entry point in range.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("program %q: no instructions", p.Name)
	}
	if len(p.Entries) == 0 {
		return fmt.Errorf("program %q: no entry points", p.Name)
	}
	if p.DataBase%4096 != 0 {
		return fmt.Errorf("program %q: data base %#x not 4KiB-aligned", p.Name, p.DataBase)
	}
	for _, e := range p.Entries {
		if e >= uint64(len(p.Insts)) {
			return fmt.Errorf("program %q: entry %d out of range (%d insts)", p.Name, e, len(p.Insts))
		}
	}
	for pc, in := range p.Insts {
		if !in.Op.Valid() {
			return fmt.Errorf("program %q: pc %d: invalid opcode %d", p.Name, pc, in.Op)
		}
		if IsMem(in.Op) {
			switch in.Size {
			case 1, 2, 4, 8:
			default:
				return fmt.Errorf("program %q: pc %d (%s): bad size %d", p.Name, pc, in, in.Size)
			}
		}
		if ClassOf(in.Op) == ClassBranch || in.Op == OpJAL {
			tgt := int64(pc) + in.Imm
			if tgt < 0 || tgt >= int64(len(p.Insts)) {
				return fmt.Errorf("program %q: pc %d (%s): target %d out of range", p.Name, pc, in, tgt)
			}
		}
		if in.Rd >= NumIntRegs || in.Rs1 >= NumIntRegs || in.Rs2 >= NumIntRegs {
			return fmt.Errorf("program %q: pc %d (%s): register out of range", p.Name, pc, in)
		}
	}
	return nil
}
