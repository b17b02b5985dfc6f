package emu

import (
	"fmt"
	"math"

	"paraverser/internal/isa"
)

// ArchState is the architectural register state of one hart: the register
// checkpoint unit (RCU) copies exactly this, 776 bytes in the paper's
// accounting (section VII-E).
type ArchState struct {
	PC uint64
	X  [isa.NumIntRegs]uint64
	F  [isa.NumFPRegs]float64
}

// Env is the environment an instruction executes against. The main core
// uses a MainEnv (real memory plus real random/cycle sources); a checker
// core substitutes a log-replaying environment so loads, swaps and
// non-repeatable values come from the load-store log (section IV-B).
type Env interface {
	Load(addr uint64, size uint8) (uint64, error)
	Store(addr uint64, size uint8, val uint64) error
	// Swap atomically exchanges an 8-byte value, returning the old value.
	Swap(addr uint64, newVal uint64) (uint64, error)
	// Rand returns the next non-repeatable random value.
	Rand() (uint64, error)
	// CycleRead returns the value of a timer read at the given retired-
	// instruction count.
	CycleRead(instret uint64) (uint64, error)
}

// Interceptor mutates instruction results to model hardware faults. A nil
// Interceptor means fault-free execution.
type Interceptor interface {
	// Result may corrupt the value an instruction is about to write to
	// its destination register. fp reports whether the destination is an
	// FP register.
	Result(in isa.Inst, class isa.Class, fp bool, v uint64) uint64
	// Address may corrupt an effective address before the access is
	// performed (modelling LSQ faults).
	Address(in isa.Inst, addr uint64) uint64
}

// DataInterceptor optionally extends Interceptor with a memory-path data
// hook: LoadData may corrupt the value a load returns, after the
// environment access but before the value is logged or written back —
// modelling faults on the fill path (DRAM cell or row faults, bus
// stuck-ats) that corrupt what the core observes without touching the
// stored image.
type DataInterceptor interface {
	Interceptor
	LoadData(in isa.Inst, addr uint64, v uint64) uint64
}

// loadData applies the DataInterceptor hook when intc implements it.
func loadData(intc Interceptor, in isa.Inst, addr uint64, v uint64) uint64 {
	if di, ok := intc.(DataInterceptor); ok {
		return di.LoadData(in, addr, v)
	}
	return v
}

// Hart is one hardware thread: architectural state plus retired count.
type Hart struct {
	ID      int
	State   ArchState
	Instret uint64
	Halted  bool
}

// NewHart returns a hart with its stack pointer initialised.
func NewHart(id int, entry uint64) *Hart {
	h := &Hart{ID: id}
	h.State.PC = entry
	h.State.X[isa.SP] = isa.StackBase - uint64(id)*isa.StackStride
	h.State.X[isa.TP] = uint64(id)
	return h
}

// Step executes one instruction from prog against env, filling eff with
// the complete architectural record. intc, if non-nil, may corrupt
// results and addresses (fault injection). Equivalent to StepDecoded over
// the program's cached predecode table.
func (h *Hart) Step(prog *isa.Program, env Env, intc Interceptor, eff *Effect) error {
	return h.StepDecoded(prog.Decoded(), env, intc, eff)
}

// StepDecoded executes one instruction from a predecoded program. This is
// the hot path: no closures, no per-step decode switches beyond the
// opcode dispatch itself, and no heap allocation on the fault-free path.
//
//paralint:hotpath
func (h *Hart) StepDecoded(dec []isa.DecInst, env Env, intc Interceptor, eff *Effect) error {
	if h.Halted {
		return fmt.Errorf("emu: hart %d: step after halt", h.ID)
	}
	pc := h.State.PC
	if pc >= uint64(len(dec)) {
		return fmt.Errorf("emu: hart %d: pc %d out of range", h.ID, pc)
	}
	d := &dec[pc]
	in := d.Inst

	// Field-wise reset: a whole-struct assignment
	// would clear the 128-byte Mem array too, which costs a duffcopy per
	// instruction for bytes every consumer already guards behind NMem.
	eff.PC = pc
	eff.Inst = in
	eff.Class = d.Class
	eff.NextPC = pc + 1
	eff.Taken = false
	eff.Dec = d
	eff.NMem = 0
	eff.NonRepeat = false
	eff.NonRepeatVal = 0
	eff.WroteInt = false
	eff.WroteFP = false
	eff.Value = 0
	eff.Halted = false

	x := &h.State.X
	f := &h.State.F
	rs1, rs2 := x[in.Rs1], x[in.Rs2]

	// Destination writes are staged here and applied after the opcode
	// dispatch, replacing the old per-step writeInt/writeFP closures.
	var (
		vInt  uint64
		vFP   float64
		wrInt bool
		wrFP  bool
	)

	switch in.Op {
	case isa.OpADD:
		vInt, wrInt = rs1+rs2, true
	case isa.OpSUB:
		vInt, wrInt = rs1-rs2, true
	case isa.OpMUL:
		vInt, wrInt = rs1*rs2, true
	case isa.OpDIV:
		if rs2 == 0 {
			vInt, wrInt = ^uint64(0), true
		} else {
			vInt, wrInt = uint64(int64(rs1)/int64(rs2)), true
		}
	case isa.OpREM:
		if rs2 == 0 {
			vInt, wrInt = rs1, true
		} else {
			vInt, wrInt = uint64(int64(rs1)%int64(rs2)), true
		}
	case isa.OpAND:
		vInt, wrInt = rs1&rs2, true
	case isa.OpOR:
		vInt, wrInt = rs1|rs2, true
	case isa.OpXOR:
		vInt, wrInt = rs1^rs2, true
	case isa.OpSLL:
		vInt, wrInt = rs1<<(rs2&63), true
	case isa.OpSRL:
		vInt, wrInt = rs1>>(rs2&63), true
	case isa.OpSRA:
		vInt, wrInt = uint64(int64(rs1)>>(rs2&63)), true
	case isa.OpSLT:
		vInt, wrInt = boolToU64(int64(rs1) < int64(rs2)), true
	case isa.OpSLTU:
		vInt, wrInt = boolToU64(rs1 < rs2), true

	case isa.OpADDI:
		vInt, wrInt = rs1+d.ImmU, true
	case isa.OpANDI:
		vInt, wrInt = rs1&d.ImmU, true
	case isa.OpORI:
		vInt, wrInt = rs1|d.ImmU, true
	case isa.OpXORI:
		vInt, wrInt = rs1^d.ImmU, true
	case isa.OpSLLI:
		vInt, wrInt = rs1<<(d.ImmU&63), true
	case isa.OpSRLI:
		vInt, wrInt = rs1>>(d.ImmU&63), true
	case isa.OpSRAI:
		vInt, wrInt = uint64(int64(rs1)>>(d.ImmU&63)), true
	case isa.OpSLTI:
		vInt, wrInt = boolToU64(int64(rs1) < in.Imm), true
	case isa.OpLUI:
		vInt, wrInt = d.ImmU, true

	case isa.OpFADD:
		vFP, wrFP = f[in.Rs1]+f[in.Rs2], true
	case isa.OpFSUB:
		vFP, wrFP = f[in.Rs1]-f[in.Rs2], true
	case isa.OpFMUL:
		vFP, wrFP = f[in.Rs1]*f[in.Rs2], true
	case isa.OpFDIV:
		vFP, wrFP = f[in.Rs1]/f[in.Rs2], true
	case isa.OpFSQRT:
		vFP, wrFP = math.Sqrt(f[in.Rs1]), true
	case isa.OpFMIN:
		vFP, wrFP = math.Min(f[in.Rs1], f[in.Rs2]), true
	case isa.OpFMAX:
		vFP, wrFP = math.Max(f[in.Rs1], f[in.Rs2]), true
	case isa.OpFNEG:
		vFP, wrFP = -f[in.Rs1], true
	case isa.OpFABS:
		vFP, wrFP = math.Abs(f[in.Rs1]), true
	case isa.OpFCVTIF:
		vFP, wrFP = float64(int64(rs1)), true
	case isa.OpFCVTFI:
		vInt, wrInt = uint64(int64(f[in.Rs1])), true
	case isa.OpFMVIF:
		vFP, wrFP = math.Float64frombits(rs1), true
	case isa.OpFMVFI:
		vInt, wrInt = math.Float64bits(f[in.Rs1]), true
	case isa.OpFEQ:
		vInt, wrInt = boolToU64(f[in.Rs1] == f[in.Rs2]), true
	case isa.OpFLT:
		vInt, wrInt = boolToU64(f[in.Rs1] < f[in.Rs2]), true

	case isa.OpLD:
		addr := rs1 + d.ImmU
		if intc != nil {
			addr = intc.Address(in, addr)
		}
		v, err := env.Load(addr, in.Size)
		if err != nil {
			return h.fault(err)
		}
		if intc != nil {
			v = loadData(intc, in, addr, v)
		}
		eff.addMem(MemLoad, addr, in.Size, v)
		vInt, wrInt = v, true
	case isa.OpFLD:
		addr := rs1 + d.ImmU
		if intc != nil {
			addr = intc.Address(in, addr)
		}
		v, err := env.Load(addr, 8)
		if err != nil {
			return h.fault(err)
		}
		if intc != nil {
			v = loadData(intc, in, addr, v)
		}
		eff.addMem(MemLoad, addr, 8, v)
		vFP, wrFP = math.Float64frombits(v), true
	case isa.OpST:
		addr := rs1 + d.ImmU
		if intc != nil {
			addr = intc.Address(in, addr)
		}
		eff.addMem(MemStore, addr, in.Size, truncate(rs2, in.Size))
		if err := env.Store(addr, in.Size, rs2); err != nil {
			return h.fault(err)
		}
	case isa.OpFST:
		addr := rs1 + d.ImmU
		if intc != nil {
			addr = intc.Address(in, addr)
		}
		val := math.Float64bits(f[in.Rs2])
		eff.addMem(MemStore, addr, 8, val)
		if err := env.Store(addr, 8, val); err != nil {
			return h.fault(err)
		}
	case isa.OpGLD:
		a1 := rs1 + d.ImmU
		a2 := rs2
		if intc != nil {
			a1 = intc.Address(in, a1)
			a2 = intc.Address(in, a2)
		}
		v1, err := env.Load(a1, in.Size)
		if err != nil {
			return h.fault(err)
		}
		v2, err := env.Load(a2, in.Size)
		if err != nil {
			return h.fault(err)
		}
		if intc != nil {
			v1 = loadData(intc, in, a1, v1)
			v2 = loadData(intc, in, a2, v2)
		}
		eff.addMem(MemLoad, a1, in.Size, v1)
		eff.addMem(MemLoad, a2, in.Size, v2)
		vInt, wrInt = v1+v2, true
	case isa.OpSST:
		a1 := rs1 + d.ImmU
		a2 := rs2
		if intc != nil {
			a1 = intc.Address(in, a1)
			a2 = intc.Address(in, a2)
		}
		val := x[in.Rd]
		eff.addMem(MemStore, a1, in.Size, truncate(val, in.Size))
		eff.addMem(MemStore, a2, in.Size, truncate(val, in.Size))
		if err := env.Store(a1, in.Size, val); err != nil {
			return h.fault(err)
		}
		if err := env.Store(a2, in.Size, val); err != nil {
			return h.fault(err)
		}
	case isa.OpSWP:
		addr := rs1
		if intc != nil {
			addr = intc.Address(in, addr)
		}
		old, err := env.Swap(addr, rs2)
		if err != nil {
			return h.fault(err)
		}
		if intc != nil {
			old = loadData(intc, in, addr, old)
		}
		eff.addMem(MemLoad, addr, 8, old)
		eff.addMem(MemStore, addr, 8, rs2)
		vInt, wrInt = old, true

	case isa.OpBEQ:
		h.condBranch(d, eff, rs1 == rs2)
	case isa.OpBNE:
		h.condBranch(d, eff, rs1 != rs2)
	case isa.OpBLT:
		h.condBranch(d, eff, int64(rs1) < int64(rs2))
	case isa.OpBGE:
		h.condBranch(d, eff, int64(rs1) >= int64(rs2))
	case isa.OpBLTU:
		h.condBranch(d, eff, rs1 < rs2)
	case isa.OpBGEU:
		h.condBranch(d, eff, rs1 >= rs2)
	case isa.OpJAL:
		vInt, wrInt = pc+1, true
		eff.Taken = true
		eff.NextPC = pc + d.ImmU
	case isa.OpJALR:
		target := rs1 + d.ImmU
		vInt, wrInt = pc+1, true
		eff.Taken = true
		eff.NextPC = target

	case isa.OpRAND:
		v, err := env.Rand()
		if err != nil {
			return h.fault(err)
		}
		eff.NonRepeat, eff.NonRepeatVal = true, v
		vInt, wrInt = v, true
	case isa.OpCYCLE:
		v, err := env.CycleRead(h.Instret)
		if err != nil {
			return h.fault(err)
		}
		eff.NonRepeat, eff.NonRepeatVal = true, v
		vInt, wrInt = v, true

	case isa.OpNOP, isa.OpPAUSE:
	case isa.OpHALT:
		eff.Halted = true
		h.Halted = true
	default:
		return fmt.Errorf("emu: hart %d: pc %d: unimplemented op %s", h.ID, pc, in.Op)
	}

	if wrInt {
		if intc != nil {
			vInt = intc.Result(in, d.Class, false, vInt)
		}
		eff.WroteInt, eff.Value = true, vInt
		if in.Rd != isa.Zero {
			x[in.Rd] = vInt
		}
	} else if wrFP {
		bits := math.Float64bits(vFP)
		if intc != nil {
			bits = intc.Result(in, d.Class, true, bits)
		}
		eff.WroteFP, eff.Value = true, bits
		f[in.Rd] = math.Float64frombits(bits)
	}

	h.State.PC = eff.NextPC
	h.Instret++
	return nil
}

func (h *Hart) condBranch(d *isa.DecInst, eff *Effect, taken bool) {
	if taken {
		eff.Taken = true
		eff.NextPC = eff.PC + d.ImmU
	}
}

func (h *Hart) fault(err error) error {
	return fmt.Errorf("emu: hart %d: pc %d: %w", h.ID, h.State.PC, err)
}

func (e *Effect) addMem(kind MemKind, addr uint64, size uint8, data uint64) {
	e.Mem[e.NMem] = MemOp{Kind: kind, Addr: addr, Size: size, Data: data}
	e.NMem++
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func truncate(v uint64, size uint8) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}
