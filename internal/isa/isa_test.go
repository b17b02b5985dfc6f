package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClassOfCoversAllOps(t *testing.T) {
	for op := OpInvalid + 1; op < numOps; op++ {
		if ClassOf(op) == ClassInvalid {
			t.Errorf("op %s has no class", op)
		}
		if op.String() == "" {
			t.Errorf("op %d has no name", op)
		}
	}
}

func TestClassOfInvalid(t *testing.T) {
	if got := ClassOf(OpInvalid); got != ClassInvalid {
		t.Errorf("ClassOf(OpInvalid) = %v, want ClassInvalid", got)
	}
	if got := ClassOf(numOps); got != ClassInvalid {
		t.Errorf("ClassOf(numOps) = %v, want ClassInvalid", got)
	}
}

func TestIsLoggedMatchesClasses(t *testing.T) {
	wantLogged := map[Op]bool{
		OpLD: true, OpST: true, OpFLD: true, OpFST: true,
		OpGLD: true, OpSST: true, OpSWP: true, OpRAND: true, OpCYCLE: true,
	}
	for op := OpInvalid + 1; op < numOps; op++ {
		if got := IsLogged(op); got != wantLogged[op] {
			t.Errorf("IsLogged(%s) = %v, want %v", op, got, wantLogged[op])
		}
	}
}

func TestIsMem(t *testing.T) {
	memOps := []Op{OpLD, OpST, OpFLD, OpFST, OpGLD, OpSST, OpSWP}
	for _, op := range memOps {
		if !IsMem(op) {
			t.Errorf("IsMem(%s) = false, want true", op)
		}
	}
	if IsMem(OpADD) || IsMem(OpRAND) || IsMem(OpBEQ) {
		t.Error("non-memory op classified as memory")
	}
}

func TestIsBranch(t *testing.T) {
	for _, op := range []Op{OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpJAL, OpJALR} {
		if !IsBranch(op) {
			t.Errorf("IsBranch(%s) = false", op)
		}
	}
	if IsBranch(OpADD) || IsBranch(OpLD) {
		t.Error("non-branch op classified as branch")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpADD, Rd: 5, Rs1: 6, Rs2: 7},
		{Op: OpADDI, Rd: 1, Rs1: 2, Imm: -42},
		{Op: OpLD, Rd: 3, Rs1: 4, Size: 8, Imm: 1024},
		{Op: OpST, Rs1: 4, Rs2: 9, Size: 2, Imm: -8},
		{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: -100},
		{Op: OpJAL, Rd: 1, Imm: 5000},
		{Op: OpLUI, Rd: 8, Imm: 0x7FF000},
		{Op: OpHALT},
		{Op: OpSWP, Rd: 10, Rs1: 11, Rs2: 12, Size: 8},
		{Op: OpFDIV, Rd: 30, Rs1: 31, Rs2: 29},
	}
	for _, in := range cases {
		b, err := in.Encode()
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		out, err := DecodeInst(b)
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if out != in {
			t.Errorf("round trip: got %+v, want %+v", out, in)
		}
	}
}

func TestEncodeRejectsBadImmediate(t *testing.T) {
	if _, err := (Inst{Op: OpADDI, Imm: 1 << 30}).Encode(); err == nil {
		t.Error("want error for 30-bit immediate")
	}
	if _, err := (Inst{Op: OpLUI, Imm: 5}).Encode(); err == nil {
		t.Error("want error for non-4096-multiple LUI immediate")
	}
	if _, err := (Inst{Op: OpInvalid}).Encode(); err == nil {
		t.Error("want error for invalid opcode")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	// Property: any in-range instruction round-trips through the binary
	// encoding.
	f := func(opRaw, rd, rs1, rs2 uint8, imm int32) bool {
		op := Op(opRaw%uint8(numOps-1)) + 1
		in := Inst{
			Op:  op,
			Rd:  Reg(rd % NumIntRegs),
			Rs1: Reg(rs1 % NumIntRegs),
			Rs2: Reg(rs2 % NumIntRegs),
			Imm: int64(imm % (1 << 22)),
		}
		if IsMem(in.Op) {
			in.Size = 8
		}
		if in.Op == OpLUI {
			in.Imm = (in.Imm >> 12) << 12
		}
		b, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := DecodeInst(b)
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProgramValidate(t *testing.T) {
	good := &Program{
		Name:    "good",
		Insts:   []Inst{{Op: OpADDI, Rd: 1, Imm: 1}, {Op: OpHALT}},
		Entries: []uint64{0},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	cases := map[string]*Program{
		"empty":        {Name: "e", Entries: []uint64{0}},
		"no entry":     {Name: "n", Insts: []Inst{{Op: OpHALT}}},
		"entry range":  {Name: "r", Insts: []Inst{{Op: OpHALT}}, Entries: []uint64{5}},
		"bad op":       {Name: "o", Insts: []Inst{{Op: OpInvalid}}, Entries: []uint64{0}},
		"bad size":     {Name: "s", Insts: []Inst{{Op: OpLD, Size: 3}}, Entries: []uint64{0}},
		"branch range": {Name: "b", Insts: []Inst{{Op: OpBEQ, Imm: 10}}, Entries: []uint64{0}},
		"bad reg":      {Name: "g", Insts: []Inst{{Op: OpADD, Rd: 40}}, Entries: []uint64{0}},
		"data align":   {Name: "d", Insts: []Inst{{Op: OpHALT}}, Entries: []uint64{0}, DataBase: DefaultDataBase + 8},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}

func TestEncodeProgramRoundTrip(t *testing.T) {
	p := &Program{
		Name: "rt",
		Insts: []Inst{
			{Op: OpADDI, Rd: 1, Imm: 7},
			{Op: OpLD, Rd: 2, Rs1: 1, Size: 4, Imm: 16},
			{Op: OpHALT},
		},
		Entries: []uint64{0},
	}
	text, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) != p.CodeBytes() {
		t.Errorf("text length %d, want %d", len(text), p.CodeBytes())
	}
	insts, err := DecodeProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if insts[i] != p.Insts[i] {
			t.Errorf("inst %d: got %+v, want %+v", i, insts[i], p.Insts[i])
		}
	}
	if _, err := DecodeProgram(text[:5]); err == nil {
		t.Error("want error for truncated text")
	}
}

func TestPCToAddr(t *testing.T) {
	if PCToAddr(0) != CodeBase {
		t.Error("PCToAddr(0) != CodeBase")
	}
	if PCToAddr(10)-PCToAddr(9) != InstBytes {
		t.Error("PC stride != InstBytes")
	}
}

// TestDecodeRejectsBadRegisters pins the register check: a field of 32
// or more is rejected with an error naming the field, as
// Program.Validate rejects it, while 31 decodes.
func TestDecodeRejectsBadRegisters(t *testing.T) {
	good, err := Inst{Op: OpADD, Rd: 31, Rs1: 31, Rs2: 31}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeInst(good); err != nil {
		t.Fatalf("register 31: %v", err)
	}
	for i, field := range []string{"rd", "rs1", "rs2"} {
		for _, r := range []byte{NumIntRegs, 255} {
			b := good
			b[1+i] = r
			_, err := DecodeInst(b)
			if err == nil || !strings.Contains(err.Error(), field+" register") {
				t.Errorf("%s = %d: error %v, want one naming %s", field, r, err, field)
			}
		}
	}
}
