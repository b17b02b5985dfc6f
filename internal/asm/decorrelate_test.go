package asm_test

import (
	"bytes"
	"math"
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
	"paraverser/internal/workload/gap"
	"paraverser/internal/workload/spec"
)

// buildMixed exercises every operand shape the rewriter must understand:
// pointer materialisation, FP cross-file moves, gather/scatter, swap, and
// non-repeatable reads.
func buildMixed(t *testing.T) *isa.Program {
	t.Helper()
	b := asm.New("dme-mixed")
	arr := b.Reserve(64 * 8)
	b.Sym("arr", arr)
	out := b.Reserve(8)
	b.Sym("out", out)

	b.LiSym(10, "arr")
	b.Li(11, 64) // element count
	b.Li(12, 0)  // index
	b.Li(13, 0)  // accumulator
	b.Label("loop")
	b.Slli(14, 12, 3)
	b.Add(14, 10, 14) // &arr[i]
	b.Rand(15)
	b.Andi(15, 15, 0xFFFF)
	b.St(8, 15, 14, 0)
	b.Ld(8, 16, 14, 0)
	b.Add(13, 13, 16)
	b.Gld(8, 17, 14, 10, 0) // arr[i] + arr[0]
	b.Add(13, 13, 17)
	b.Sst(8, 13, 14, 10, 0) // arr[i] = arr[0] = acc
	b.Swp(18, 10, 13)
	b.Add(13, 13, 18)
	b.Fcvtif(1, 13)
	b.Fcvtif(2, 16)
	b.Fadd(3, 1, 2)
	b.Fsqrt(4, 3)
	b.Fmvfi(19, 4)
	b.Xor(13, 13, 19)
	b.Cycle(20)
	b.Add(13, 13, 20)
	b.Addi(12, 12, 1)
	b.Blt(12, 11, "loop")
	b.LiSym(21, "out")
	b.St(8, 13, 21, 0)
	b.Halt()
	p, err := b.BuildVerified()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// runPair runs the original and its decorrelated variant side by side and
// proves the final architectural states and memories are related exactly
// by the variant map.
func runPair(t *testing.T, p *isa.Program, limit int64) {
	t.Helper()
	v, err := asm.Decorrelate(p, asm.DecorrelateOptions{RegSeed: 7})
	if err != nil {
		t.Fatalf("decorrelate %q: %v", p.Name, err)
	}
	if err := verify.EquivalentVariant(p, v.Prog, &v.Map); err != nil {
		t.Fatalf("equivalence %q: %v", p.Name, err)
	}
	if rep := verify.Verify(v.Prog); rep.Err() != nil {
		t.Fatalf("variant fails static verify: %v", rep.Err())
	}

	const seed = 42
	mo, err := emu.NewMachine(p, seed)
	if err != nil {
		t.Fatalf("orig machine: %v", err)
	}
	mv, err := emu.NewMachine(v.Prog, seed)
	if err != nil {
		t.Fatalf("variant machine: %v", err)
	}
	no, errO := mo.Run(limit, nil)
	nv, errV := mv.Run(limit, nil)
	if (errO == nil) != (errV == nil) || no != nv {
		t.Fatalf("%q: runs diverged: orig %d insts (%v), variant %d insts (%v)", p.Name, no, errO, nv, errV)
	}

	m := &v.Map
	span := isa.DataSpan(p)
	shiftVal := func(x uint64) uint64 {
		if x >= p.DataBase && x < p.DataBase+span {
			return x + m.DataShift
		}
		return x
	}
	for h := range mo.Harts {
		so, sv := &mo.Harts[h].State, &mv.Harts[h].State
		if sv.PC != so.PC {
			t.Fatalf("%q hart %d: pc %d vs %d", p.Name, h, sv.PC, so.PC)
		}
		for i := 0; i < isa.NumIntRegs; i++ {
			if got, want := sv.X[m.XPerm[i]], shiftVal(so.X[i]); got != want {
				t.Errorf("%q hart %d: x%d (variant x%d) = %#x, want %#x", p.Name, h, i, m.XPerm[i], got, want)
			}
		}
		for i := 0; i < isa.NumFPRegs; i++ {
			if got, want := math.Float64bits(sv.F[m.FPerm[i]]), math.Float64bits(so.F[i]); got != want {
				t.Errorf("%q hart %d: f%d (variant f%d) = %#x, want %#x", p.Name, h, i, m.FPerm[i], got, want)
			}
		}
	}
	if !bytes.Equal(mo.Mem.ReadBytes(p.DataBase, p.Data.Len()), mv.Mem.ReadBytes(v.Prog.DataBase, p.Data.Len())) {
		t.Errorf("%q: data segments diverged after run", p.Name)
	}
	for h := range mo.Harts {
		base := isa.StackBase - uint64(h)*isa.StackStride - 4096
		if !bytes.Equal(mo.Mem.ReadBytes(base, 4096), mv.Mem.ReadBytes(base, 4096)) {
			t.Errorf("%q: hart %d stack diverged after run", p.Name, h)
		}
	}
}

func TestDecorrelateMixedProgram(t *testing.T) {
	runPair(t, buildMixed(t), 0)
}

func TestDecorrelateWorkloads(t *testing.T) {
	for _, pr := range spec.Profiles() {
		prog, err := pr.Build(64)
		if err != nil {
			t.Fatalf("spec %s: %v", pr.Name, err)
		}
		runPair(t, prog, 100_000)
	}
	g := gap.Uniform(64, 4, 1)
	bfs, _ := gap.BFS(g, 0)
	pr, _ := gap.PageRank(g, 3)
	runPair(t, bfs, 100_000)
	runPair(t, pr, 100_000)
}

func TestDecorrelateRejectsBadShift(t *testing.T) {
	p := buildMixed(t)
	if _, err := asm.Decorrelate(p, asm.DecorrelateOptions{DataShiftBytes: 100}); err == nil {
		t.Error("unaligned shift accepted")
	}
	if _, err := asm.Decorrelate(p, asm.DecorrelateOptions{DataShiftBytes: 4096}); err == nil {
		t.Error("overlapping shift accepted")
	}
}

func TestDecorrelateSeedsDiffer(t *testing.T) {
	p := buildMixed(t)
	a, err := asm.Decorrelate(p, asm.DecorrelateOptions{RegSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := asm.Decorrelate(p, asm.DecorrelateOptions{RegSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Map.XPerm == b.Map.XPerm && a.Map.FPerm == b.Map.FPerm {
		t.Error("different seeds produced identical register permutations")
	}
}
