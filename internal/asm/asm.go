// Package asm provides a programmatic assembler for building isa.Programs:
// forward and backward labels, immediate materialisation, data-segment
// layout, and per-hart entry points. The GAP graph kernels, PARSEC-style
// parallel kernels and the synthetic SPEC workloads are all written
// against this builder.
package asm

import (
	"encoding/binary"
	"fmt"

	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
)

// Builder incrementally assembles a program. Methods panic on structural
// misuse (e.g. binding a label twice) — assembly errors are programming
// errors in workload construction, surfaced at Build as a returned error
// where they depend on runtime values (e.g. unresolved labels).
type Builder struct {
	name    string
	insts   []isa.Inst
	data    []byte
	seg     *isa.Segment // a whole data segment given by Segment
	entries []uint64

	labels  map[string]int   // label -> pc
	fixups  map[string][]int // label -> pcs needing patching
	symbols map[string]uint64
	err     error
}

// New returns a Builder for a program with the given name.
func New(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]int),
		fixups:  make(map[string][]int),
		symbols: make(map[string]uint64),
	}
}

// PC returns the current instruction index.
func (b *Builder) PC() int { return len(b.insts) }

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) *Builder {
	b.insts = append(b.insts, in)
	return b
}

// Label binds a name to the current PC. Binding the same name twice is an
// error surfaced at Build.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("label %q bound twice", name)
		return b
	}
	b.labels[name] = b.PC()
	return b
}

// Entry marks the current PC as a hart entry point and returns its index.
func (b *Builder) Entry() *Builder {
	b.entries = append(b.entries, uint64(b.PC()))
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm %q: "+format, append([]any{b.name}, args...)...)
	}
}

// --- integer ALU ---

func (b *Builder) op3(op isa.Op, rd, rs1, rs2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

func (b *Builder) opImm(op isa.Op, rd, rs1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Add emits rd = rs1 + rs2, and similarly for the other three-register ops.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpADD, rd, rs1, rs2) }
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpSUB, rd, rs1, rs2) }
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpMUL, rd, rs1, rs2) }
func (b *Builder) Div(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpDIV, rd, rs1, rs2) }
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpREM, rd, rs1, rs2) }
func (b *Builder) And(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpAND, rd, rs1, rs2) }
func (b *Builder) Or(rd, rs1, rs2 isa.Reg) *Builder   { return b.op3(isa.OpOR, rd, rs1, rs2) }
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpXOR, rd, rs1, rs2) }
func (b *Builder) Sll(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpSLL, rd, rs1, rs2) }
func (b *Builder) Srl(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpSRL, rd, rs1, rs2) }
func (b *Builder) Sra(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpSRA, rd, rs1, rs2) }
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg) *Builder  { return b.op3(isa.OpSLT, rd, rs1, rs2) }
func (b *Builder) Sltu(rd, rs1, rs2 isa.Reg) *Builder { return b.op3(isa.OpSLTU, rd, rs1, rs2) }

// Addi emits rd = rs1 + imm, and similarly for the other immediate ops.
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int64) *Builder { return b.opImm(isa.OpADDI, rd, rs1, imm) }
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int64) *Builder { return b.opImm(isa.OpANDI, rd, rs1, imm) }
func (b *Builder) Ori(rd, rs1 isa.Reg, imm int64) *Builder  { return b.opImm(isa.OpORI, rd, rs1, imm) }
func (b *Builder) Xori(rd, rs1 isa.Reg, imm int64) *Builder { return b.opImm(isa.OpXORI, rd, rs1, imm) }
func (b *Builder) Slli(rd, rs1 isa.Reg, imm int64) *Builder { return b.opImm(isa.OpSLLI, rd, rs1, imm) }
func (b *Builder) Srli(rd, rs1 isa.Reg, imm int64) *Builder { return b.opImm(isa.OpSRLI, rd, rs1, imm) }
func (b *Builder) Srai(rd, rs1 isa.Reg, imm int64) *Builder { return b.opImm(isa.OpSRAI, rd, rs1, imm) }
func (b *Builder) Slti(rd, rs1 isa.Reg, imm int64) *Builder { return b.opImm(isa.OpSLTI, rd, rs1, imm) }

// Mov emits rd = rs.
func (b *Builder) Mov(rd, rs isa.Reg) *Builder { return b.Addi(rd, rs, 0) }

// Li materialises an arbitrary 64-bit constant into rd using as few
// instructions as possible (ADDI, LUI+ADDI, or a shift-build sequence).
func (b *Builder) Li(rd isa.Reg, v int64) *Builder {
	const immMax, immMin = 1<<23 - 1, -(1 << 23)
	if v >= immMin && v <= immMax {
		return b.Addi(rd, isa.Zero, v)
	}
	// LUI covers a signed 36-bit range (24-bit field << 12).
	if hi := v >> 12; hi >= immMin && hi <= immMax && v >= 0 {
		b.Emit(isa.Inst{Op: isa.OpLUI, Rd: rd, Imm: hi << 12})
		if lo := v & 0xFFF; lo != 0 {
			b.Addi(rd, rd, lo)
		}
		return b
	}
	// General case: build in 16-bit chunks, high to low.
	b.Addi(rd, isa.Zero, (v>>48)&0xFFFF)
	for shift := 32; shift >= 0; shift -= 16 {
		b.Slli(rd, rd, 16)
		if chunk := (v >> shift) & 0xFFFF; chunk != 0 {
			b.Ori(rd, rd, chunk)
		}
	}
	return b
}

// --- floating point ---

func (b *Builder) Fadd(rd, rs1, rs2 isa.Reg) *Builder { return b.op3(isa.OpFADD, rd, rs1, rs2) }
func (b *Builder) Fsub(rd, rs1, rs2 isa.Reg) *Builder { return b.op3(isa.OpFSUB, rd, rs1, rs2) }
func (b *Builder) Fmul(rd, rs1, rs2 isa.Reg) *Builder { return b.op3(isa.OpFMUL, rd, rs1, rs2) }
func (b *Builder) Fdiv(rd, rs1, rs2 isa.Reg) *Builder { return b.op3(isa.OpFDIV, rd, rs1, rs2) }
func (b *Builder) Fsqrt(rd, rs1 isa.Reg) *Builder     { return b.op3(isa.OpFSQRT, rd, rs1, 0) }
func (b *Builder) Fmin(rd, rs1, rs2 isa.Reg) *Builder { return b.op3(isa.OpFMIN, rd, rs1, rs2) }
func (b *Builder) Fmax(rd, rs1, rs2 isa.Reg) *Builder { return b.op3(isa.OpFMAX, rd, rs1, rs2) }
func (b *Builder) Fneg(rd, rs1 isa.Reg) *Builder      { return b.op3(isa.OpFNEG, rd, rs1, 0) }
func (b *Builder) Fabs(rd, rs1 isa.Reg) *Builder      { return b.op3(isa.OpFABS, rd, rs1, 0) }

// Fcvtif emits Fd = float64(Xs1); Fcvtfi emits Xd = int64(Fs1).
func (b *Builder) Fcvtif(fd, xs isa.Reg) *Builder { return b.op3(isa.OpFCVTIF, fd, xs, 0) }
func (b *Builder) Fcvtfi(xd, fs isa.Reg) *Builder { return b.op3(isa.OpFCVTFI, xd, fs, 0) }
func (b *Builder) Fmvif(fd, xs isa.Reg) *Builder  { return b.op3(isa.OpFMVIF, fd, xs, 0) }
func (b *Builder) Fmvfi(xd, fs isa.Reg) *Builder  { return b.op3(isa.OpFMVFI, xd, fs, 0) }
func (b *Builder) Feq(xd, fs1, fs2 isa.Reg) *Builder {
	return b.op3(isa.OpFEQ, xd, fs1, fs2)
}
func (b *Builder) Flt(xd, fs1, fs2 isa.Reg) *Builder {
	return b.op3(isa.OpFLT, xd, fs1, fs2)
}

// --- memory ---

// Ld emits rd = mem[rs1+imm] (size bytes, zero-extended).
func (b *Builder) Ld(size uint8, rd, rs1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpLD, Rd: rd, Rs1: rs1, Size: size, Imm: imm})
}

// St emits mem[rs1+imm] = rs2 (size bytes).
func (b *Builder) St(size uint8, rs2, rs1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpST, Rs1: rs1, Rs2: rs2, Size: size, Imm: imm})
}

// Fld emits fd = mem[rs1+imm] (8 bytes); Fst the store counterpart.
func (b *Builder) Fld(fd, rs1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpFLD, Rd: fd, Rs1: rs1, Size: 8, Imm: imm})
}
func (b *Builder) Fst(fs, rs1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpFST, Rs1: rs1, Rs2: fs, Size: 8, Imm: imm})
}

// Gld emits rd = mem[rs1+imm] + mem[rs2] (gather-class, two base addresses).
func (b *Builder) Gld(size uint8, rd, rs1, rs2 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpGLD, Rd: rd, Rs1: rs1, Rs2: rs2, Size: size, Imm: imm})
}

// Sst emits mem[rs1+imm] = rd; mem[rs2] = rd (scatter-class).
func (b *Builder) Sst(size uint8, rd, rs1, rs2 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpSST, Rd: rd, Rs1: rs1, Rs2: rs2, Size: size, Imm: imm})
}

// Swp emits rd = mem[rs1]; mem[rs1] = rs2 atomically (8 bytes).
func (b *Builder) Swp(rd, rs1, rs2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpSWP, Rd: rd, Rs1: rs1, Rs2: rs2, Size: 8})
}

// --- control flow ---

func (b *Builder) branch(op isa.Op, rs1, rs2 isa.Reg, label string) *Builder {
	pc := b.PC()
	b.Emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2})
	b.ref(label, pc)
	return b
}

// ref records that the instruction at pc needs its Imm patched to the
// PC-relative offset of label.
func (b *Builder) ref(label string, pc int) {
	if tgt, ok := b.labels[label]; ok {
		b.insts[pc].Imm = int64(tgt - pc)
		return
	}
	b.fixups[label] = append(b.fixups[label], pc)
}

// Beq branches to label when rs1 == rs2, and similarly for the others.
func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBEQ, rs1, rs2, label)
}
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBNE, rs1, rs2, label)
}
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBLT, rs1, rs2, label)
}
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBGE, rs1, rs2, label)
}
func (b *Builder) Bltu(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBLTU, rs1, rs2, label)
}
func (b *Builder) Bgeu(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.OpBGEU, rs1, rs2, label)
}

// Jmp jumps unconditionally to label (JAL with rd = zero).
func (b *Builder) Jmp(label string) *Builder {
	pc := b.PC()
	b.Emit(isa.Inst{Op: isa.OpJAL, Rd: isa.Zero})
	b.ref(label, pc)
	return b
}

// Call jumps to label, recording the return PC in isa.RA.
func (b *Builder) Call(label string) *Builder {
	pc := b.PC()
	b.Emit(isa.Inst{Op: isa.OpJAL, Rd: isa.RA})
	b.ref(label, pc)
	return b
}

// Ret returns to the address in isa.RA.
func (b *Builder) Ret() *Builder {
	return b.Emit(isa.Inst{Op: isa.OpJALR, Rd: isa.Zero, Rs1: isa.RA})
}

// Jalr emits rd = pc+1; pc = rs1 + imm (indirect jump, e.g. jump tables).
func (b *Builder) Jalr(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpJALR, Rd: rd, Rs1: rs1, Imm: imm})
}

// --- misc ---

func (b *Builder) Rand(rd isa.Reg) *Builder  { return b.Emit(isa.Inst{Op: isa.OpRAND, Rd: rd}) }
func (b *Builder) Cycle(rd isa.Reg) *Builder { return b.Emit(isa.Inst{Op: isa.OpCYCLE, Rd: rd}) }
func (b *Builder) Nop() *Builder             { return b.Emit(isa.Inst{Op: isa.OpNOP}) }
func (b *Builder) Pause() *Builder           { return b.Emit(isa.Inst{Op: isa.OpPAUSE}) }
func (b *Builder) Halt() *Builder            { return b.Emit(isa.Inst{Op: isa.OpHALT}) }

// --- data segment ---

// Word64 appends a 64-bit little-endian value to the data segment and
// returns its byte offset from the data base.
func (b *Builder) Word64(v uint64) uint64 {
	off := uint64(len(b.data))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.data = append(b.data, buf[:]...)
	return off
}

// Float64 appends a float64 to the data segment and returns its offset.
func (b *Builder) Float64(v float64) uint64 {
	return b.Word64(floatBits(v))
}

// Bytes appends raw bytes to the data segment and returns their offset.
func (b *Builder) Bytes(p []byte) uint64 {
	off := uint64(len(b.data))
	b.data = append(b.data, p...)
	return off
}

// Reserve appends n zero bytes to the data segment and returns the offset.
func (b *Builder) Reserve(n int) uint64 {
	off := uint64(len(b.data))
	b.data = append(b.data, make([]byte, n)...)
	return off
}

// SetWord64 overwrites 8 bytes of already-reserved data at off.
func (b *Builder) SetWord64(off uint64, v uint64) *Builder {
	if off+8 > uint64(len(b.data)) {
		b.fail("SetWord64 at %d past data end %d", off, len(b.data))
		return b
	}
	binary.LittleEndian.PutUint64(b.data[off:], v)
	return b
}

// SetFloat64 overwrites 8 bytes of already-reserved data with a float64.
func (b *Builder) SetFloat64(off uint64, v float64) *Builder {
	return b.SetWord64(off, floatBits(v))
}

// Segment makes seg the program's whole data segment and returns its
// offset, 0. It is for data too large to build as bytes, such as a
// segment generated on first touch (isa.GeneratedSegment); Build fails
// if the builder also has data of its own.
func (b *Builder) Segment(seg *isa.Segment) uint64 {
	b.seg = seg
	return 0
}

// Align pads the data segment to a multiple of n bytes and returns the new
// length.
func (b *Builder) Align(n int) uint64 {
	for len(b.data)%n != 0 {
		b.data = append(b.data, 0)
	}
	return uint64(len(b.data))
}

// Sym binds a name to a data offset so later code can refer to it.
func (b *Builder) Sym(name string, off uint64) *Builder {
	b.symbols[name] = off
	return b
}

// DataAddr returns the absolute simulated address of a data offset.
func (b *Builder) DataAddr(off uint64) uint64 { return isa.DefaultDataBase + off }

// SymAddr returns the absolute address of a named data symbol.
func (b *Builder) SymAddr(name string) uint64 {
	off, ok := b.symbols[name]
	if !ok {
		b.fail("unknown symbol %q", name)
		return 0
	}
	return b.DataAddr(off)
}

// LiSym materialises the absolute address of a named symbol into rd.
func (b *Builder) LiSym(rd isa.Reg, name string) *Builder {
	return b.Li(rd, int64(b.SymAddr(name)))
}

// Build resolves all labels and returns the validated program.
func (b *Builder) Build() (*isa.Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	data := b.seg
	if data == nil {
		data = isa.NewSegment(b.data)
	} else if len(b.data) > 0 {
		return nil, fmt.Errorf("asm %q: data beside a Segment", b.name)
	}
	for label, pcs := range b.fixups {
		tgt, ok := b.labels[label]
		if !ok {
			//paralint:allow(error path; any unresolved label fails the build identically)
			return nil, fmt.Errorf("asm %q: unresolved label %q", b.name, label)
		}
		for _, pc := range pcs {
			//paralint:allow(each fixup patches a distinct pc; order cannot leak)
			b.insts[pc].Imm = int64(tgt - pc)
		}
	}
	entries := b.entries
	if len(entries) == 0 {
		entries = []uint64{0}
	}
	p := &isa.Program{
		Name:     b.name,
		Insts:    b.insts,
		Data:     data,
		DataBase: isa.DefaultDataBase,
		Entries:  entries,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build for static programs known to be correct; it panics on
// error.
func (b *Builder) MustBuild() *isa.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// BuildVerified is Build followed by the static program verifier
// (internal/isa/verify): control-flow, HALT reachability, register
// use-before-def and statically resolvable memory bounds. Workload
// generators should prefer it so malformed programs fail at assembly
// time instead of as emulation divergence.
func (b *Builder) BuildVerified() (*isa.Program, error) {
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := verify.Check(p); err != nil {
		return nil, err
	}
	return p, nil
}
