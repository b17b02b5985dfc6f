package emu

import (
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/isa"
	"paraverser/internal/workload/gap"
	"paraverser/internal/workload/parsec"
	"paraverser/internal/workload/spec"
)

func progOnly(p *isa.Program, _ uint64) *isa.Program { return p }

// shippedWorkloadPrograms regenerates the full shipped-workload set at
// small scale: the synthetic SPEC profiles, the GAP graph kernels and
// the PARSEC-style kernels (including the multi-hart blackscholes
// build, whose hart 0 the differential harness exercises).
func shippedWorkloadPrograms(t *testing.T) []*isa.Program {
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
		progOnly(gap.BFS(g, 0)), progOnly(gap.PageRank(g, 3)), progOnly(gap.SSSP(g, 0)),
		progOnly(gap.CC(g)), progOnly(gap.TC(g)), progOnly(gap.BC(g, 0)))
	for _, k := range parsec.Kernels(0) {
		progs = append(progs, k.Prog)
	}
	progs = append(progs, parsec.BlackscholesThreads(16, 1))
	return progs
}

// TestRunBlocksEquivalenceWorkloads is the workload half of the
// RunBlocks differential (TestRunBlocksEquivalenceRandom covers
// adversarial random programs): every shipped workload program AND its
// decorrelated divergent-mode variant, executed through RunBlocks in
// randomly sized batches, must match per-instruction stepping bit for
// bit — architectural state, effects, memory image, and error
// placement.
func TestRunBlocksEquivalenceWorkloads(t *testing.T) {
	for _, prog := range shippedWorkloadPrograms(t) {
		t.Run(prog.Name, func(t *testing.T) {
			runBlocksDifferential(t, prog, 42, 15000, int64(len(prog.Insts)))
			v, err := asm.Decorrelate(prog, asm.DecorrelateOptions{})
			if err != nil {
				t.Fatalf("decorrelate: %v", err)
			}
			runBlocksDifferential(t, v.Prog, 42, 15000, int64(len(prog.Insts))+1)
		})
	}
}
