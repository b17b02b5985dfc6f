package verify

import (
	"strings"
	"testing"

	"paraverser/internal/isa"
)

// Programs in this file are hand-assembled as raw instruction slices:
// the asm package imports verify, so verify's tests cannot use the
// builder without an import cycle.

// firstFinding returns the first finding with the given rule, or nil.
func firstFinding(r *Report, rule string) *Finding {
	for i := range r.Findings {
		if r.Findings[i].Rule == rule {
			return &r.Findings[i]
		}
	}
	return nil
}

// storeLoopProgram assembles the canonical induction-variable store
// loop over an `elems`-element array of 8-byte slots:
//
//	lui  r10, DataBase      ; base
//	addi r11, zero, 0       ; i = 0
//	addi r12, zero, elems+slack
//	loop:
//	slli r13, r11, 3
//	add  r13, r10, r13
//	st.8 r11, 0(r13)        ; arr[i] = i
//	addi r11, r11, 1
//	blt  r11, r12, loop
//	halt
//
// With slack == 0 the final store lands at arr[elems-1] and the program
// must verify clean with a proved instruction bound; with slack == 1 it
// writes one slot past the segment and must be rejected by RuleBounds.
func storeLoopProgram(elems, slack int64) *isa.Program {
	const base = isa.DefaultDataBase
	r10, r11, r12, r13 := isa.Reg(10), isa.Reg(11), isa.Reg(12), isa.Reg(13)
	insts := []isa.Inst{
		{Op: isa.OpLUI, Rd: r10, Imm: int64(base)},
		{Op: isa.OpADDI, Rd: r11, Rs1: isa.Zero, Imm: 0},
		{Op: isa.OpADDI, Rd: r12, Rs1: isa.Zero, Imm: elems + slack},
		// loop: (pc 3)
		{Op: isa.OpSLLI, Rd: r13, Rs1: r11, Imm: 3},
		{Op: isa.OpADD, Rd: r13, Rs1: r10, Rs2: r13},
		{Op: isa.OpST, Rd: isa.Zero, Rs1: r13, Rs2: r11, Size: 8},
		{Op: isa.OpADDI, Rd: r11, Rs1: r11, Imm: 1},
		{Op: isa.OpBLT, Rs1: r11, Rs2: r12, Imm: -4}, // back to loop head at pc 3
		{Op: isa.OpHALT},
	}
	return &isa.Program{
		Name:     "store-loop",
		Insts:    insts,
		Data:     isa.NewSegment(make([]byte, elems*8)),
		DataBase: base,
		Entries:  []uint64{0},
	}
}

// TestInductionStoreLoopAccepted is the tentpole acceptance test: the
// fixpoint must prove i ∈ [0, elems-1] at the store (branch refinement
// trimming the widened interval) so every access is in bounds, and the
// termination analysis must deliver a concrete instruction bound.
func TestInductionStoreLoopAccepted(t *testing.T) {
	p := storeLoopProgram(64, 0)
	r := Verify(p)
	for _, f := range r.Findings {
		t.Errorf("unexpected finding: %s", f)
	}
	if r.MaxInsts <= 0 {
		t.Fatalf("MaxInsts = %d, want a positive proved bound", r.MaxInsts)
	}
	// 3 preamble + 64 iterations of 5 + halt = 324 dynamic instructions;
	// the bound may be conservative but must cover the real execution.
	if r.MaxInsts < 324 {
		t.Fatalf("MaxInsts = %d below the real dynamic count 324", r.MaxInsts)
	}
	// Every store must come out proved in the memory fact log.
	proved := 0
	for _, mf := range r.MemFacts {
		if mf.PC == 5 && mf.Proved {
			proved++
		}
		if mf.Violation {
			t.Errorf("unexpected violation fact at pc %d: %s", mf.PC, mf.Addr)
		}
	}
	if proved == 0 {
		t.Fatalf("store at pc 5 not proved in bounds; facts: %+v", r.MemFacts)
	}
}

// TestInductionStoreLoopOffByOneRejected flips the loop bound one past
// the array: the last store writes 8 bytes beyond the segment and the
// verifier must reject it with RuleBounds.
func TestInductionStoreLoopOffByOneRejected(t *testing.T) {
	p := storeLoopProgram(64, 1)
	r := Verify(p)
	f := firstFinding(r, RuleBounds)
	if f == nil {
		t.Fatalf("off-by-one store loop not rejected; findings: %v, facts: %+v", r.Findings, r.MemFacts)
	}
	if f.Sev != SevError {
		t.Fatalf("RuleBounds finding severity = %v, want SevError", f.Sev)
	}
	if f.PC != 5 {
		t.Fatalf("RuleBounds finding at pc %d, want the store at pc 5", f.PC)
	}
}

// TestBranchRefinementPrunesDeadArm checks per-edge refinement turns a
// statically decided branch into dead code on the impossible arm.
func TestBranchRefinementPrunesDeadArm(t *testing.T) {
	r10 := isa.Reg(10)
	p := &isa.Program{
		Name: "decided-branch",
		Insts: []isa.Inst{
			{Op: isa.OpADDI, Rd: r10, Rs1: isa.Zero, Imm: 7},
			{Op: isa.OpBEQ, Rs1: r10, Rs2: isa.Zero, Imm: 3}, // to pc 4; never taken
			{Op: isa.OpADDI, Rd: r10, Rs1: r10, Imm: 1},
			{Op: isa.OpHALT},
			{Op: isa.OpADDI, Rd: r10, Rs1: isa.Zero, Imm: -1}, // dead arm
			{Op: isa.OpHALT},
		},
		Entries: []uint64{0},
	}
	r := Verify(p)
	f := firstFinding(r, RuleDeadCode)
	if f == nil {
		t.Fatalf("statically-false branch arm not reported dead; findings: %v", r.Findings)
	}
	if f.PC != 4 {
		t.Fatalf("dead code reported at pc %d, want 4", f.PC)
	}
}

// TestSpinLoopIsInfoNotWarn: a flag-spin's exit depends on loaded data,
// so the unbounded-loop diagnostic must be informational, not a warning
// — shipped workloads use these for locks and barriers.
func TestSpinLoopIsInfoNotWarn(t *testing.T) {
	r10, r11 := isa.Reg(10), isa.Reg(11)
	p := &isa.Program{
		Name: "spin",
		Insts: []isa.Inst{
			{Op: isa.OpLUI, Rd: r10, Imm: int64(isa.DefaultDataBase)},
			// spin: (pc 1)
			{Op: isa.OpLD, Rd: r11, Rs1: r10, Size: 8},
			{Op: isa.OpBEQ, Rs1: r11, Rs2: isa.Zero, Imm: -1}, // back to the load
			{Op: isa.OpHALT},
		},
		Data:     isa.NewSegment(make([]byte, 8)),
		DataBase: isa.DefaultDataBase,
		Entries:  []uint64{0},
	}
	r := Verify(p)
	f := firstFinding(r, RuleTermination)
	if f == nil {
		t.Fatalf("spin loop produced no termination finding: %v", r.Findings)
	}
	if f.Sev != SevInfo {
		t.Fatalf("spin loop termination severity = %v, want SevInfo", f.Sev)
	}
	if !strings.Contains(f.Msg, "data-dependent") {
		t.Fatalf("spin loop message %q should mention data-dependence", f.Msg)
	}
	if r.MaxInsts != 0 {
		t.Fatalf("MaxInsts = %d for an unbounded program, want 0", r.MaxInsts)
	}
}

// TestCounterLoopWithoutInductionIsWarn: a loop stepped by ADD (not a
// self-ADDI) resists the induction argument; when hart 0's step is zero
// the loop really never exits, yet no data is involved — that must stay
// a warning, not be softened to info. Two harts share the entry so TP
// (the step source) is not a foldable constant.
func TestCounterLoopWithoutInductionIsWarn(t *testing.T) {
	r10, r12, r13 := isa.Reg(10), isa.Reg(12), isa.Reg(13)
	p := &isa.Program{
		Name: "opaque-counter",
		Insts: []isa.Inst{
			{Op: isa.OpADDI, Rd: r10, Rs1: isa.Zero, Imm: 0},
			{Op: isa.OpADDI, Rd: r13, Rs1: isa.Zero, Imm: 100},
			{Op: isa.OpADD, Rd: r12, Rs1: isa.TP, Rs2: isa.TP}, // step = 2*hart ∈ {0, 2}
			// loop: (pc 3) — ADD-step defeats the self-ADDI induction pattern
			{Op: isa.OpADD, Rd: r10, Rs1: r10, Rs2: r12},
			{Op: isa.OpBLT, Rs1: r10, Rs2: r13, Imm: -1}, // back to pc 3
			{Op: isa.OpHALT},
		},
		Entries: []uint64{0, 0},
	}
	r := Verify(p)
	f := firstFinding(r, RuleTermination)
	if f == nil {
		t.Fatalf("opaque counter loop produced no termination finding: %v", r.Findings)
	}
	if f.Sev != SevWarn {
		t.Fatalf("opaque counter termination severity = %v, want SevWarn: %s", f.Sev, f)
	}
}

// TestNestedLoopBound: the recursive remainder decomposition must bound
// a two-level nest and multiply the bounds out.
func TestNestedLoopBound(t *testing.T) {
	r10, r11, r14 := isa.Reg(10), isa.Reg(11), isa.Reg(14)
	p := &isa.Program{
		Name: "nest",
		Insts: []isa.Inst{
			{Op: isa.OpADDI, Rd: r14, Rs1: isa.Zero, Imm: 16},
			{Op: isa.OpADDI, Rd: r10, Rs1: isa.Zero, Imm: 0},
			// outer: (pc 2)
			{Op: isa.OpADDI, Rd: r11, Rs1: isa.Zero, Imm: 0},
			// inner: (pc 3) — triangular: runs r10 times
			{Op: isa.OpADDI, Rd: r11, Rs1: r11, Imm: 1},
			{Op: isa.OpBLT, Rs1: r11, Rs2: r10, Imm: -1}, // inner backedge to pc 3
			{Op: isa.OpADDI, Rd: r10, Rs1: r10, Imm: 1},
			{Op: isa.OpBLT, Rs1: r10, Rs2: r14, Imm: -4}, // outer backedge to pc 2
			{Op: isa.OpHALT},
		},
		Entries: []uint64{0},
	}
	r := Verify(p)
	for _, f := range r.Findings {
		if f.Sev == SevError {
			t.Fatalf("unexpected error: %s", f)
		}
	}
	if r.MaxInsts <= 0 {
		t.Fatalf("nested loop not bounded; findings: %v", r.Findings)
	}
}

// TestAbsintProvesEntryFacts: hart-specific seeds flow through — TP is
// the hart index and SP the per-hart stack top.
func TestAbsintProvesEntryFacts(t *testing.T) {
	p := &isa.Program{
		Name: "seeds",
		Insts: []isa.Inst{
			{Op: isa.OpADD, Rd: isa.Reg(10), Rs1: isa.TP, Rs2: isa.Zero},
			{Op: isa.OpHALT},
		},
		Entries: []uint64{0},
	}
	succs, _ := buildCFG(p, &Report{Program: p.Name})
	res := runAbsint(p, succs)
	st := res.in[1]
	if c, ok := st.getX(isa.Reg(10)).IsConst(); !ok || c != 0 {
		t.Fatalf("single-hart TP copy = %s, want const 0", st.getX(isa.Reg(10)))
	}

	// Two harts sharing the entry: the seed join must cover both.
	p2 := &isa.Program{
		Name:    "seeds2",
		Insts:   p.Insts,
		Entries: []uint64{0, 0},
	}
	succs2, _ := buildCFG(p2, &Report{Program: p2.Name})
	res2 := runAbsint(p2, succs2)
	got := res2.in[1].getX(isa.Reg(10))
	if !got.Contains(0) || !got.Contains(1) {
		t.Fatalf("shared-entry TP join = %s, want to cover harts 0 and 1", got)
	}
	if got.Contains(2) && got.Lo == 0 && got.Hi > 8 {
		t.Fatalf("shared-entry TP join = %s is too loose", got)
	}
}
