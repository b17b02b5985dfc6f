package isa

import "fmt"

// Binary instruction encoding. Each instruction packs into 8 bytes:
//
//	byte 0    opcode
//	byte 1    rd
//	byte 2    rs1
//	byte 3    rs2
//	byte 4    size (memory ops) | unused
//	bytes 5-7 unused (alignment)
//	          followed by nothing: the immediate is carried in a side
//	          table? No — immediates are common, so we use a 16-byte
//	          encoding when the immediate does not fit in 24 bits.
//
// To keep decoding trivial and the footprint fixed (InstBytes), the
// immediate is truncated to a signed 24-bit field in bytes 5-7; programs
// with larger immediates must build them with LUI+ADDI (the assembler does
// this automatically via Li). Encode returns an error for out-of-range
// immediates on other opcodes.

const (
	immBits = 24
	immMax  = 1<<(immBits-1) - 1
	immMin  = -1 << (immBits - 1)
)

// Encode packs the instruction into its 8-byte binary form.
func (in Inst) Encode() ([InstBytes]byte, error) {
	var b [InstBytes]byte
	if !in.Op.Valid() {
		return b, fmt.Errorf("encode: invalid opcode %d", in.Op)
	}
	imm := in.Imm
	if in.Op == OpLUI {
		// LUI immediates are a 12-bit-shifted value; store the raw
		// (unshifted) 24-bit field.
		imm = in.Imm >> 12
		if imm<<12 != in.Imm {
			return b, fmt.Errorf("encode: %s: immediate %d not a multiple of 4096", in, in.Imm)
		}
	}
	if imm > immMax || imm < immMin {
		return b, fmt.Errorf("encode: %s: immediate %d exceeds 24-bit field", in, in.Imm)
	}
	b[0] = byte(in.Op)
	b[1] = byte(in.Rd)
	b[2] = byte(in.Rs1)
	b[3] = byte(in.Rs2)
	b[4] = in.Size
	u := uint32(imm) & 0xFF_FFFF
	b[5] = byte(u)
	b[6] = byte(u >> 8)
	b[7] = byte(u >> 16)
	return b, nil
}

// DecodeInst unpacks an 8-byte binary instruction. It rejects what
// Program.Validate would: an undefined opcode, or a register field
// beyond the 32-entry register files the emulator indexes directly.
func DecodeInst(b [InstBytes]byte) (Inst, error) {
	op := Op(b[0])
	if !op.Valid() {
		return Inst{}, fmt.Errorf("decode: invalid opcode %d", b[0])
	}
	for i, field := range [...]string{"rd", "rs1", "rs2"} {
		if r := b[1+i]; r >= NumIntRegs {
			return Inst{}, fmt.Errorf("decode: %s: %s register %d out of range (%d registers)", op, field, r, NumIntRegs)
		}
	}
	u := uint32(b[5]) | uint32(b[6])<<8 | uint32(b[7])<<16
	// Sign-extend the 24-bit immediate.
	imm := int64(int32(u<<8) >> 8)
	if op == OpLUI {
		imm <<= 12
	}
	return Inst{
		Op:   op,
		Rd:   Reg(b[1]),
		Rs1:  Reg(b[2]),
		Rs2:  Reg(b[3]),
		Size: b[4],
		Imm:  imm,
	}, nil
}

// EncodeProgram serialises the program's instructions into a flat byte
// slice (the simulated text segment).
func EncodeProgram(p *Program) ([]byte, error) {
	out := make([]byte, 0, len(p.Insts)*InstBytes)
	for pc, in := range p.Insts {
		b, err := in.Encode()
		if err != nil {
			return nil, fmt.Errorf("pc %d: %w", pc, err)
		}
		out = append(out, b[:]...)
	}
	return out, nil
}

// DecodeProgram parses a flat text segment back into instructions.
func DecodeProgram(text []byte) ([]Inst, error) {
	if len(text)%InstBytes != 0 {
		return nil, fmt.Errorf("decode: text length %d not a multiple of %d", len(text), InstBytes)
	}
	insts := make([]Inst, 0, len(text)/InstBytes)
	for off := 0; off < len(text); off += InstBytes {
		var b [InstBytes]byte
		copy(b[:], text[off:off+InstBytes])
		in, err := DecodeInst(b)
		if err != nil {
			return nil, fmt.Errorf("pc %d: %w", off/InstBytes, err)
		}
		insts = append(insts, in)
	}
	return insts, nil
}

// PCToAddr converts an instruction index to its simulated byte address,
// used by instruction-cache modelling.
func PCToAddr(pc uint64) uint64 { return CodeBase + pc*InstBytes }
