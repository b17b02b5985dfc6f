package verify_test

import (
	"strings"
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
)

// findRule reports whether the report contains a finding from the given
// rule at the given severity.
func findRule(r *verify.Report, rule string, sev verify.Severity) bool {
	for _, f := range r.Findings {
		if f.Rule == rule && f.Sev == sev {
			return true
		}
	}
	return false
}

func TestCleanProgramVerifies(t *testing.T) {
	b := asm.New("clean")
	off := b.Word64(7)
	b.Sym("x", off)
	b.LiSym(isa.Reg(5), "x").
		Ld(8, 6, 5, 0).
		Addi(6, 6, 1).
		St(8, 6, 5, 0).
		Halt()
	p, err := b.BuildVerified()
	if err != nil {
		t.Fatalf("BuildVerified: %v", err)
	}
	rep := verify.Verify(p)
	if len(rep.Findings) != 0 {
		t.Errorf("clean program produced findings: %v", rep.Findings)
	}
}

func TestCallReturnFlowVerifies(t *testing.T) {
	b := asm.New("callret")
	b.Li(5, 1).
		Call("fn").
		Halt().
		Label("fn").
		Addi(5, 5, 1).
		Ret()
	p, err := b.BuildVerified()
	if err != nil {
		t.Fatalf("BuildVerified: %v", err)
	}
	if rep := verify.Verify(p); len(rep.Findings) != 0 {
		t.Errorf("call/return program produced findings: %v", rep.Findings)
	}
}

func TestDanglingBranchRejected(t *testing.T) {
	// The assembler refuses to build a branch past the end, so seed the
	// broken program directly.
	p := &isa.Program{
		Name: "dangling",
		Insts: []isa.Inst{
			{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 40},
			{Op: isa.OpHALT},
		},
		Entries: []uint64{0},
	}
	rep := verify.Verify(p)
	if !findRule(rep, verify.RuleValidate, verify.SevError) {
		t.Errorf("dangling branch not rejected: %v", rep.Findings)
	}
	if err := rep.Err(); err == nil {
		t.Error("Err() == nil for dangling branch")
	}
}

func TestFallOffEndRejected(t *testing.T) {
	p := &isa.Program{
		Name:    "falloff",
		Insts:   []isa.Inst{{Op: isa.OpADDI, Rd: 5, Rs1: 0, Imm: 1}},
		Entries: []uint64{0},
	}
	rep := verify.Verify(p)
	if !findRule(rep, verify.RuleCFG, verify.SevError) {
		t.Errorf("fall-off-end not rejected: %v", rep.Findings)
	}
}

func TestInfiniteLoopRejected(t *testing.T) {
	b := asm.New("spin")
	b.Label("loop").
		Addi(5, 0, 1).
		Jmp("loop").
		Halt() // unreachable
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep := verify.Verify(p)
	if !findRule(rep, verify.RuleHalt, verify.SevError) {
		t.Errorf("inescapable loop not rejected: %v", rep.Findings)
	}
	if !findRule(rep, verify.RuleDeadCode, verify.SevWarn) {
		t.Errorf("unreachable HALT not warned: %v", rep.Findings)
	}
	if _, err := b.BuildVerified(); err == nil {
		t.Error("BuildVerified accepted an inescapable loop")
	}
}

func TestConditionalSpinLoopAccepted(t *testing.T) {
	// A spin loop with a conditional exit edge must pass: the exit path
	// exists statically even though taking it depends on memory.
	b := asm.New("condspin")
	off := b.Word64(0)
	b.Sym("flag", off)
	b.LiSym(5, "flag").
		Label("wait").
		Ld(8, 6, 5, 0).
		Beq(6, 0, "wait").
		Halt()
	if _, err := b.BuildVerified(); err != nil {
		t.Errorf("conditional spin loop rejected: %v", err)
	}
}

func TestUseBeforeDefRejected(t *testing.T) {
	b := asm.New("ubd")
	b.Add(5, 6, 7). // x6, x7 never written
			Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep := verify.Verify(p)
	if !findRule(rep, verify.RuleUseDef, verify.SevError) {
		t.Errorf("use-before-def not rejected: %v", rep.Findings)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "x6") {
		t.Errorf("Err() should name x6: %v", err)
	}
}

func TestUseBeforeDefOnOnePathRejected(t *testing.T) {
	// x5 is defined on the fall-through path only; the meet over both
	// branch edges must catch the undefined path.
	b := asm.New("onepath")
	b.Li(6, 1).
		Beq(6, 0, "skip").
		Li(5, 2).
		Label("skip").
		Add(7, 5, 6).
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !findRule(verify.Verify(p), verify.RuleUseDef, verify.SevError) {
		t.Error("path-sensitive use-before-def not rejected")
	}
}

func TestEntryRegistersDefined(t *testing.T) {
	// SP, GP and TP are loader-initialised; reading them at entry is fine.
	b := asm.New("entryregs")
	b.Add(5, isa.SP, isa.GP).
		Add(6, 5, isa.TP).
		Halt()
	if _, err := b.BuildVerified(); err != nil {
		t.Errorf("entry-register reads rejected: %v", err)
	}
}

func TestFPUseBeforeDefRejected(t *testing.T) {
	b := asm.New("fpubd")
	b.Fadd(3, 1, 2). // f1, f2 never written (F file is distinct from X)
				Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep := verify.Verify(p)
	if !findRule(rep, verify.RuleUseDef, verify.SevError) {
		t.Errorf("FP use-before-def not rejected: %v", rep.Findings)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "f1") {
		t.Errorf("Err() should name f1: %v", err)
	}
}

func TestStaticStoreOutOfBoundsRejected(t *testing.T) {
	b := asm.New("oob")
	off := b.Word64(1)
	b.Sym("x", off)
	b.LiSym(5, "x").
		Li(6, 42).
		St(8, 6, 5, 8). // one word past the 8-byte data segment
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep := verify.Verify(p)
	if !findRule(rep, verify.RuleBounds, verify.SevError) {
		t.Errorf("static OOB store not rejected: %v", rep.Findings)
	}
}

func TestStraddlingLoadRejected(t *testing.T) {
	b := asm.New("straddle")
	off := b.Word64(1)
	b.Sym("x", off)
	b.LiSym(5, "x").
		Ld(8, 6, 5, 4). // 8-byte load at data end - 4: straddles the boundary
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !findRule(verify.Verify(p), verify.RuleBounds, verify.SevError) {
		t.Error("straddling load not rejected")
	}
}

func TestStackAccessNotFlagged(t *testing.T) {
	// SP-relative accesses are far from the data segment; the bounds
	// check must not confuse them with near misses.
	b := asm.New("stack")
	b.Word64(1)
	b.Li(6, 9).
		St(8, 6, isa.SP, -8).
		Ld(8, 7, isa.SP, -8).
		Halt()
	if _, err := b.BuildVerified(); err != nil {
		t.Errorf("stack access flagged: %v", err)
	}
}

func TestNonRepeatCensus(t *testing.T) {
	b := asm.New("nonrep")
	b.Rand(5).
		Cycle(6).
		Add(7, 5, 6).
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep := verify.Verify(p)
	if len(rep.NonRepeat) != 2 || rep.NonRepeat[0] != 0 || rep.NonRepeat[1] != 1 {
		t.Errorf("NonRepeat = %v, want [0 1]", rep.NonRepeat)
	}
	if !findRule(rep, verify.RuleNonRepeat, verify.SevInfo) {
		t.Errorf("non-repeat census missing: %v", rep.Findings)
	}
	if err := rep.Err(); err != nil {
		t.Errorf("info findings must not fail Check: %v", err)
	}
}

func TestMultiEntryReachability(t *testing.T) {
	// Two harts with separate entries; both bodies must be reachable and
	// the per-entry initial state applies to each.
	b := asm.New("mt")
	b.Entry().
		Li(5, 1).
		Halt()
	b.Entry().
		Li(6, 2).
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep := verify.Verify(p)
	if len(rep.Findings) != 0 {
		t.Errorf("multi-entry program produced findings: %v", rep.Findings)
	}
	for pc, ok := range rep.Reachable {
		if !ok {
			t.Errorf("pc %d unreachable", pc)
		}
	}
}

// TestCalleeBoundCountsEveryCall checks proved bounds against real
// runs of programs whose code executes once per activation. The first
// pins a termination-bound unsoundness the fuzzer's bound oracle found
// (seed 0x9eaa7b487a7a4c88 of fuzz.Generate(seed, 200), shrunk to 41
// instructions): the callee at pcs 37-40 is called from pcs 16 and 26,
// so its body retires twice, and a bound that counted each acyclic
// instruction once proved 41 while the run retires 45. In the second,
// the callee jumps into a tail the top level later reaches too, so the
// tail runs once per activation: taking the larger of its two
// predecessors' counts, rather than summing the activations that reach
// it, would undercount it.
func TestCalleeBoundCountsEveryCall(t *testing.T) {
	li := func(rd isa.Reg, imm int64) isa.Inst { return isa.Inst{Op: isa.OpADDI, Rd: rd, Imm: imm} }
	lui := func(rd isa.Reg, imm int64) isa.Inst { return isa.Inst{Op: isa.OpLUI, Rd: rd, Imm: imm} }
	cvt := func(fd, rs isa.Reg) isa.Inst { return isa.Inst{Op: isa.OpFCVTIF, Rd: fd, Rs1: rs} }
	for _, tc := range []struct {
		name    string
		insts   []isa.Inst
		retired int64
	}{
		{"two-call-sites", []isa.Inst{
			li(10, -1490), li(11, 3734), lui(12, 261302564083), lui(13, 18370623261),
			li(14, 743), {Op: isa.OpSLLI, Rd: 14, Rs1: 14, Imm: 7},
			lui(15, 940338298885), li(16, 199), {Op: isa.OpSLLI, Rd: 16, Rs1: 16, Imm: 7},
			li(17, -1069),
			cvt(8, 10), cvt(9, 11), cvt(10, 12), cvt(11, 13), cvt(12, 14), cvt(13, 15),
			{Op: isa.OpJAL, Rd: isa.RA, Imm: 21}, // pc 16: call pc 37
			lui(3, int64(isa.DefaultDataBase)),
			li(10, 377), li(11, 883), li(12, 3418), li(13, 896),
			li(14, 3189), li(15, 3442), li(16, 3910), li(17, 2675),
			{Op: isa.OpJAL, Rd: isa.RA, Imm: 11}, // pc 26: call pc 37
			lui(3, int64(isa.DefaultDataBase)),
			li(10, 1998), li(11, 2238), li(12, 247), li(13, 2245),
			li(14, 857), li(15, 1907), li(16, 2558), li(17, 717),
			{Op: isa.OpHALT},
			{Op: isa.OpSUB, Rd: 15, Rs1: 15, Rs2: 14}, // pc 37: callee
			{Op: isa.OpSUB, Rd: 10, Rs1: 10, Rs2: 15},
			{Op: isa.OpMUL, Rd: 14, Rs1: 14, Rs2: 14},
			{Op: isa.OpJALR, Rd: isa.Zero, Rs1: isa.RA},
		}, 45},
		{"shared-tail", []isa.Inst{
			li(5, 1),
			{Op: isa.OpJAL, Rd: isa.RA, Imm: 5}, // pc 1: call pc 6
			li(5, 0),
			li(6, 1), // pc 3: shared tail
			{Op: isa.OpBNE, Rs1: 5, Rs2: isa.Zero, Imm: 3}, // callee returns via pc 7
			{Op: isa.OpHALT},
			{Op: isa.OpJAL, Rd: isa.Zero, Imm: -3}, // pc 6: callee jumps to pc 3
			{Op: isa.OpJALR, Rd: isa.Zero, Rs1: isa.RA},
		}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &isa.Program{
				Name:     tc.name,
				Insts:    tc.insts,
				Data:     isa.NewSegment(make([]byte, 4096)),
				DataBase: isa.DefaultDataBase,
				Entries:  []uint64{0},
			}
			rep := verify.Verify(p)
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			retired, err := emu.RunProgram(p, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if retired != tc.retired {
				t.Fatalf("program retires %d instructions, want %d", retired, tc.retired)
			}
			if rep.MaxInsts < retired {
				t.Fatalf("proved bound %d, but the run retires %d", rep.MaxInsts, retired)
			}
		})
	}
}
