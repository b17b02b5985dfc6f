package verify_test

import (
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
	"paraverser/internal/workload/gap"
	"paraverser/internal/workload/parsec"
	"paraverser/internal/workload/spec"
)

// TestShippedWorkloadsVerifyClean proves every program the workload
// generators emit — the synthetic SPEC profiles, the GAP graph kernels
// and the PARSEC-style kernels — passes the static verifier with zero
// errors. CI runs this as the "Verify workloads" gate.
func TestShippedWorkloadsVerifyClean(t *testing.T) {
	var progs []*isa.Program

	for _, p := range spec.Profiles() {
		prog, err := p.Build(64)
		if err != nil {
			t.Fatalf("spec %s: %v", p.Name, err)
		}
		progs = append(progs, prog)
	}

	g := gap.Uniform(64, 4, 1)
	for _, k := range []struct {
		name string
		prog *isa.Program
	}{
		{"bfs", first(gap.BFS(g, 0))},
		{"pagerank", first(gap.PageRank(g, 3))},
		{"sssp", first(gap.SSSP(g, 0))},
		{"cc", first(gap.CC(g))},
		{"tc", first(gap.TC(g))},
		{"bc", first(gap.BC(g, 0))},
	} {
		progs = append(progs, k.prog)
	}

	for _, k := range parsec.Kernels(0) {
		progs = append(progs, k.Prog)
	}

	if len(progs) == 0 {
		t.Fatal("no workload programs generated")
	}
	for _, prog := range progs {
		rep := verify.Verify(prog)
		if err := rep.Err(); err != nil {
			t.Errorf("%v", err)
		}
		for _, f := range rep.Findings {
			if f.Sev == verify.SevWarn {
				t.Errorf("verify %q: unexpected warning: %s", prog.Name, f)
			}
		}
	}
}

func first(p *isa.Program, _ uint64) *isa.Program { return p }

// shippedPrograms regenerates the full shipped-workload set at small
// scale for the verification gates.
func shippedPrograms(t *testing.T) []*isa.Program {
	t.Helper()
	var progs []*isa.Program
	for _, p := range spec.Profiles() {
		prog, err := p.Build(64)
		if err != nil {
			t.Fatalf("spec %s: %v", p.Name, err)
		}
		progs = append(progs, prog)
	}
	g := gap.Uniform(64, 4, 1)
	progs = append(progs,
		first(gap.BFS(g, 0)), first(gap.PageRank(g, 3)), first(gap.SSSP(g, 0)),
		first(gap.CC(g)), first(gap.TC(g)), first(gap.BC(g, 0)))
	for _, k := range parsec.Kernels(0) {
		progs = append(progs, k.Prog)
	}
	progs = append(progs, parsec.BlackscholesThreads(16, 1))
	return progs
}

// TestBlockTablesMatchCFG cross-validates the basic-block translation
// tables against the static verifier's CFG for every shipped workload
// and every decorrelated variant: blocks must be single-entry,
// straight-line, and cut before every CFG edge target.
func TestBlockTablesMatchCFG(t *testing.T) {
	for _, prog := range shippedPrograms(t) {
		if err := verify.CheckBlockTable(prog, prog.Blocks()); err != nil {
			t.Errorf("%v", err)
		}
		v, err := asm.Decorrelate(prog, asm.DecorrelateOptions{})
		if err != nil {
			t.Errorf("decorrelate %q: %v", prog.Name, err)
			continue
		}
		if err := verify.CheckBlockTable(v.Prog, v.Prog.Blocks()); err != nil {
			t.Errorf("variant of %q: %v", prog.Name, err)
		}
	}
}

// TestDecorrelatedVariantsVerifyClean is the divergent-mode half of the
// "Verify workloads" CI gate: every decorrelated variant of every
// shipped workload must itself pass the static verifier with zero
// findings AND prove structurally equivalent to its original. A variant
// that failed either would silently disqualify the workload from
// divergent checking.
func TestDecorrelatedVariantsVerifyClean(t *testing.T) {
	for _, prog := range shippedPrograms(t) {
		v, err := asm.Decorrelate(prog, asm.DecorrelateOptions{})
		if err != nil {
			t.Errorf("decorrelate %q: %v", prog.Name, err)
			continue
		}
		rep := verify.Verify(v.Prog)
		if err := rep.Err(); err != nil {
			t.Errorf("variant of %q: %v", prog.Name, err)
		}
		for _, f := range rep.Findings {
			if f.Sev == verify.SevWarn {
				t.Errorf("variant of %q: unexpected warning: %s", prog.Name, f)
			}
		}
		if err := verify.EquivalentVariant(prog, v.Prog, &v.Map); err != nil {
			t.Errorf("variant of %q fails equivalence: %v", prog.Name, err)
		}
	}
}
