package isa

// This file is the basic-block translation pass: the program is
// partitioned once into single-entry straight-line blocks. No engine
// executes blocks any more; the table stays because the benchmark
// harness times its construction. A block is cut after every control-flow instruction (conditional branch, JAL,
// JALR) and after HALT, and before every leader — an entry point or a
// static branch/JAL target — so control can only ever enter a block at
// its first instruction.

// BlockTable is the per-program basic-block partition. It is a flat
// table indexed by pc: End[pc] is the exclusive end of the straight-line
// block run beginning at pc, i.e. instructions [pc, End[pc]) execute
// sequentially and only the last of them can be a control-flow
// instruction or HALT. Indexing by every pc (not just leaders) lets a
// consumer resume mid-block without a leader lookup.
type BlockTable struct {
	// End[pc] is the exclusive end of the block run starting at pc.
	// Always > pc and <= NumInsts.
	End []uint32
	// Leader[pc] marks block entries: program entry points, static
	// branch/JAL targets, and fall-through successors of control flow
	// and HALT. Exported for CFG cross-validation in tests.
	Leader []bool
}

// cutsAfter reports whether a block must end immediately after this
// instruction: control flow may leave, so the next instruction (if any)
// starts a new block. JALR is indirect — it has no static target to mark
// as a leader, but it still terminates its block.
func cutsAfter(op Op) bool {
	switch ClassOf(op) {
	case ClassBranch, ClassJump:
		return true
	}
	return op == OpHALT
}

// staticTarget returns the instruction-index target of a statically
// resolvable control transfer and whether one exists. Conditional
// branches and JAL encode target = pc + Imm; JALR is register-indirect.
func staticTarget(pc int, in Inst) (int64, bool) {
	if ClassOf(in.Op) == ClassBranch || in.Op == OpJAL {
		return int64(pc) + in.Imm, true
	}
	return 0, false
}

// BuildBlockTable partitions insts into basic blocks. Out-of-range
// static targets (rejected by Program.Validate, which every machine
// constructor runs first) are ignored rather than marked.
func BuildBlockTable(insts []Inst, entries []uint64) *BlockTable {
	n := len(insts)
	t := &BlockTable{End: make([]uint32, n), Leader: make([]bool, n)}
	for _, e := range entries {
		if e < uint64(n) {
			t.Leader[e] = true
		}
	}
	for pc, in := range insts {
		if tgt, ok := staticTarget(pc, in); ok && tgt >= 0 && tgt < int64(n) {
			t.Leader[tgt] = true
		}
		if cutsAfter(in.Op) && pc+1 < n {
			t.Leader[pc+1] = true
		}
	}
	for pc := n - 1; pc >= 0; pc-- {
		switch {
		case cutsAfter(insts[pc].Op) || pc+1 == n || t.Leader[pc+1]:
			t.End[pc] = uint32(pc + 1)
		default:
			t.End[pc] = t.End[pc+1]
		}
	}
	return t
}

// Blocks returns the program's basic-block table, building and caching
// it on first use alongside the predecode table. Safe for concurrent
// use; racing builders produce identical tables, so last-write-wins is
// harmless. Insts must not be mutated after the first call.
func (p *Program) Blocks() *BlockTable {
	if t := p.blocks.Load(); t != nil {
		return t
	}
	t := BuildBlockTable(p.Insts, p.Entries)
	p.blocks.Store(t)
	return t
}
