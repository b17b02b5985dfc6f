package asm

import (
	"strings"
	"testing"
	"testing/quick"

	"paraverser/internal/isa"
)

func TestLabelsResolveForwardAndBackward(t *testing.T) {
	b := New("labels")
	b.Label("top")
	b.Addi(5, 5, 1)
	b.Beq(5, 6, "end") // forward reference
	b.Jmp("top")       // backward reference
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[1].Imm != 2 {
		t.Errorf("forward branch imm %d, want 2", p.Insts[1].Imm)
	}
	if p.Insts[2].Imm != -2 {
		t.Errorf("backward jump imm %d, want -2", p.Insts[2].Imm)
	}
}

func TestUnresolvedLabelFails(t *testing.T) {
	b := New("bad")
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("want unresolved-label error, got %v", err)
	}
}

func TestDuplicateLabelFails(t *testing.T) {
	b := New("dup")
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("want duplicate-label error")
	}
}

func TestLiEncodesArbitraryConstants(t *testing.T) {
	// Verified through emulation in emu tests; here check instruction
	// counts stay small and immediates in range for Encode.
	cases := []int64{0, 1, -1, 4095, 4096, -4096, 1 << 20, -(1 << 22), 1 << 33, -(1 << 40), 0x7FFFFFFFFFFFFFFF}
	for _, v := range cases {
		b := New("li")
		b.Li(5, v)
		b.Halt()
		p, err := b.Build()
		if err != nil {
			t.Fatalf("Li(%d): %v", v, err)
		}
		if len(p.Insts) > 9 {
			t.Errorf("Li(%d) used %d instructions", v, len(p.Insts))
		}
		if _, err := isa.EncodeProgram(p); err != nil {
			t.Errorf("Li(%d) emitted unencodable instructions: %v", v, err)
		}
	}
}

func TestLiQuickAllValuesEncodable(t *testing.T) {
	f := func(v int64) bool {
		b := New("q")
		b.Li(6, v)
		b.Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		_, err = isa.EncodeProgram(p)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDataSegmentHelpers(t *testing.T) {
	b := New("data")
	o1 := b.Word64(0x1122334455667788)
	o2 := b.Float64(3.5)
	o3 := b.Bytes([]byte{1, 2, 3})
	al := b.Align(8)
	o4 := b.Reserve(16)
	b.SetWord64(o4, 42)
	b.SetFloat64(o4+8, 1.25)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if o1 != 0 || o2 != 8 || o3 != 16 {
		t.Errorf("offsets %d %d %d", o1, o2, o3)
	}
	if al%8 != 0 {
		t.Errorf("align returned %d", al)
	}
	data := p.Data.Bytes()
	if data[o3] != 1 || data[o3+2] != 3 {
		t.Error("bytes not written")
	}
	if data[o4] != 42 {
		t.Error("SetWord64 not applied")
	}

	// Reserve on an empty segment starts it at offset 0; a second
	// Reserve appends zeroes after what is already there.
	e := New("reserve")
	r1 := e.Reserve(4096)
	e.SetWord64(r1, 7)
	r2 := e.Reserve(24)
	e.Halt()
	q, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != 0 || r2 != 4096 || q.Data.Len() != 4096+24 {
		t.Fatalf("reserve offsets %d %d, data length %d", r1, r2, q.Data.Len())
	}
	qd := q.Data.Bytes()
	if qd[0] != 7 {
		t.Error("first reservation lost its contents")
	}
	for i, v := range qd[1:] {
		if v != 0 {
			t.Fatalf("reserved byte %d is %d, want 0", i+1, v)
		}
	}
}

func TestSetWord64OutOfRangeFails(t *testing.T) {
	b := New("oob")
	b.Reserve(8)
	b.SetWord64(4, 1) // straddles the end
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("want out-of-range error")
	}
}

// TestSegmentIsWholeData: a builder given a Segment builds a program
// over exactly that segment, and fails when it also has data of its own.
func TestSegmentIsWholeData(t *testing.T) {
	seg := isa.NewSegment(make([]byte, 64))
	b := New("seg")
	if off := b.Segment(seg); off != 0 {
		t.Errorf("segment offset %d, want 0", off)
	}
	b.Halt()
	if p, err := b.Build(); err != nil || p.Data != seg {
		t.Fatalf("Build = %v, %v; want the given segment", p, err)
	}
	c := New("seg+word")
	c.Segment(seg)
	c.Word64(1)
	c.Halt()
	if _, err := c.Build(); err == nil {
		t.Error("want an error for data beside a Segment")
	}
}

func TestSymbols(t *testing.T) {
	b := New("sym")
	off := b.Word64(7)
	b.Sym("seven", off)
	b.LiSym(5, "seven")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInsts() < 2 {
		t.Error("LiSym emitted nothing")
	}

	bad := New("badsym")
	bad.LiSym(5, "missing")
	bad.Halt()
	if _, err := bad.Build(); err == nil {
		t.Error("want unknown-symbol error")
	}
}

func TestEntriesDefaultToZero(t *testing.T) {
	b := New("e")
	b.Halt()
	p := b.MustBuild()
	if len(p.Entries) != 1 || p.Entries[0] != 0 {
		t.Errorf("entries = %v, want [0]", p.Entries)
	}

	b2 := New("e2")
	b2.Entry()
	b2.Halt()
	b2.Entry()
	b2.Halt()
	p2 := b2.MustBuild()
	if len(p2.Entries) != 2 || p2.Entries[1] != 1 {
		t.Errorf("entries = %v, want [0 1]", p2.Entries)
	}
}

func TestCallRetPair(t *testing.T) {
	b := New("cr")
	b.Call("fn")
	b.Halt()
	b.Label("fn")
	b.Ret()
	p := b.MustBuild()
	if p.Insts[0].Op != isa.OpJAL || p.Insts[0].Rd != isa.RA {
		t.Error("Call is not JAL ra")
	}
	if p.Insts[2].Op != isa.OpJALR || p.Insts[2].Rs1 != isa.RA {
		t.Error("Ret is not JALR via ra")
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid program")
		}
	}()
	b := New("panic")
	b.Jmp("missing")
	b.MustBuild()
}
