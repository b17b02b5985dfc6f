// Abstract-interpretation engine over the verifier CFG: a worklist
// fixpoint in reverse-postorder with the interval + known-bits product
// domain of domain.go, delayed widening at loop heads, descending
// narrowing sweeps, and per-edge refinement from branch conditions.
// The post-fixpoint states feed the rewritten bounds pass and the
// termination-bound analysis (termination.go).

package verify

import (
	"container/heap"
	"math"

	"paraverser/internal/isa"
)

// absState is the abstract machine state flowing into one instruction:
// one AbsVal per integer register and one FVal per FP register. live
// distinguishes "not yet reached" (all-bottom) from a visited state.
type absState struct {
	live bool
	x    [isa.NumIntRegs]AbsVal
	f    [isa.NumFPRegs]FVal
}

func (s *absState) getX(r isa.Reg) AbsVal {
	if r == isa.Zero {
		return ConstVal(0)
	}
	return s.x[r]
}

func (s *absState) setX(r isa.Reg, v AbsVal) {
	if r != isa.Zero {
		s.x[r] = v
	}
}

func (s *absState) setTop() {
	s.live = true
	for r := 1; r < isa.NumIntRegs; r++ {
		s.x[r] = TopVal()
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		s.f[r] = TopF()
	}
}

// join merges o into s, reporting whether s changed.
func (s *absState) join(o *absState) bool {
	if !o.live {
		return false
	}
	if !s.live {
		*s = *o
		return true
	}
	changed := false
	for r := 1; r < isa.NumIntRegs; r++ {
		if n := s.x[r].Join(o.x[r]); n != s.x[r] {
			s.x[r] = n
			changed = true
		}
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		if n := s.f[r].JoinF(o.f[r]); n != s.f[r] {
			s.f[r] = n
			changed = true
		}
	}
	return changed
}

// equal reports whether s and o are the same state, field by field. The
// small AbsVal and FVal comparisons compile inline; comparing whole
// absStates with != goes through a generated equality function and
// memeqbody instead.
func (s *absState) equal(o *absState) bool {
	if s.live != o.live {
		return false
	}
	for r := range s.x {
		if s.x[r] != o.x[r] {
			return false
		}
	}
	for r := range s.f {
		if s.f[r] != o.f[r] {
			return false
		}
	}
	return true
}

// widenFrom applies widening with s as the previous loop-head state and
// o as the new incoming join, reporting whether s changed.
func (s *absState) widenFrom(o *absState) bool {
	if !o.live {
		return false
	}
	if !s.live {
		*s = *o
		return true
	}
	changed := false
	for r := 1; r < isa.NumIntRegs; r++ {
		if n := s.x[r].Widen(s.x[r].Join(o.x[r])); n != s.x[r] {
			s.x[r] = n
			changed = true
		}
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		if n := s.f[r].WidenF(s.f[r].JoinF(o.f[r])); n != s.f[r] {
			s.f[r] = n
			changed = true
		}
	}
	return changed
}

// absResult is the engine output consumed by the bounds and termination
// passes: the narrowed per-PC in-states and the CFG the fixpoint ran on.
type absResult struct {
	in    []absState
	succs [][]int
	// edgeLive[pc][ei] reports whether out-edge ei of pc was ever
	// propagated (branch refinement proved some edges infeasible).
	edgeLive [][]bool
}

// entrySeed is the architectural register state the loader establishes
// for hart i before its first instruction.
func entrySeed(p *isa.Program, hart int) absState {
	var st absState
	st.live = true
	for r := 1; r < isa.NumIntRegs; r++ {
		st.x[r] = ConstVal(0)
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		st.f[r] = ConstF(0)
	}
	st.x[isa.SP] = ConstVal(isa.StackBase - uint64(hart)*isa.StackStride)
	st.x[isa.TP] = ConstVal(uint64(hart))
	st.x[isa.GP] = ConstVal(p.DataBase)
	return st
}

// rpoOrder computes a reverse postorder over the nodes reachable from
// the entry points, returning the order and each node's position
// (n for unreachable nodes).
func rpoOrder(p *isa.Program, succs [][]int) (order []int, pos []int) {
	n := len(p.Insts)
	pos = make([]int, n)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	var post []int
	type frame struct{ pc, next int }
	var stack []frame
	for _, e := range p.Entries {
		if state[e] != 0 {
			continue
		}
		state[e] = 1
		stack = append(stack, frame{pc: int(e)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(succs[f.pc]) {
				s := succs[f.pc][f.next]
				f.next++
				if state[s] == 0 {
					state[s] = 1
					stack = append(stack, frame{pc: s})
				}
				continue
			}
			state[f.pc] = 2
			post = append(post, f.pc)
			stack = stack[:len(stack)-1]
		}
	}
	order = make([]int, len(post))
	for i := range post {
		order[i] = post[len(post)-1-i]
	}
	for pc := range pos {
		pos[pc] = n
	}
	for i, pc := range order {
		pos[pc] = i
	}
	return order, pos
}

// pcHeap is a worklist ordered by reverse-postorder position.
type pcHeap struct {
	pcs []int
	pos []int
}

func (h *pcHeap) Len() int           { return len(h.pcs) }
func (h *pcHeap) Less(i, j int) bool { return h.pos[h.pcs[i]] < h.pos[h.pcs[j]] }
func (h *pcHeap) Swap(i, j int)      { h.pcs[i], h.pcs[j] = h.pcs[j], h.pcs[i] }
func (h *pcHeap) Push(x any)         { h.pcs = append(h.pcs, x.(int)) }
func (h *pcHeap) Pop() any {
	old := h.pcs
	n := len(old)
	v := old[n-1]
	h.pcs = old[:n-1]
	return v
}

const widenDelay = 2 // changed joins tolerated at a loop head before widening

// runAbsint runs the fixpoint and narrowing passes and returns the
// per-PC in-states.
func runAbsint(p *isa.Program, succs [][]int) *absResult {
	n := len(p.Insts)
	res := &absResult{
		in:       make([]absState, n),
		succs:    succs,
		edgeLive: make([][]bool, n),
	}
	for pc := range res.edgeLive {
		res.edgeLive[pc] = make([]bool, len(succs[pc]))
	}
	order, pos := rpoOrder(p, succs)
	if len(order) == 0 {
		return res
	}

	// Loop heads: targets of retreating edges in the RPO.
	isHead := make([]bool, n)
	for _, pc := range order {
		for _, s := range succs[pc] {
			if pos[s] <= pos[pc] {
				isHead[s] = true
			}
		}
	}

	// Seed the entries; a PC shared by several harts joins their seeds.
	wl := &pcHeap{pos: pos}
	inQueue := make([]bool, n)
	for hart, e := range p.Entries {
		seed := entrySeed(p, hart)
		if res.in[e].join(&seed) && !inQueue[e] {
			inQueue[e] = true
			heap.Push(wl, int(e))
		}
	}

	joins := make([]int, n) // changed joins per loop head
	budget := 64*len(order) + 4096
	for wl.Len() > 0 {
		pc := heap.Pop(wl).(int)
		inQueue[pc] = false
		if budget--; budget < 0 {
			// Safeguard against pathological convergence: give up on
			// precision, soundly, by sending every reachable state to top.
			for _, q := range order {
				res.in[q].setTop()
				for ei := range res.edgeLive[q] {
					res.edgeLive[q][ei] = true
				}
			}
			return res
		}
		st := res.in[pc]
		absTransfer(p.Insts[pc], pc, &st)
		for ei, s := range succs[pc] {
			edge, feasible := edgeState(p.Insts[pc], pc, &st, ei, s)
			if !feasible {
				continue
			}
			res.edgeLive[pc][ei] = true
			// Widen only along retreating edges: changes arriving on a
			// forward edge come from outside the loop (an outer induction
			// variable, say) and widening on them would destroy precision
			// the loop itself never threatens. Every cycle contains a
			// retreating edge, so termination is still guaranteed.
			var changed bool
			if isHead[s] && pos[s] <= pos[pc] {
				if joins[s] < widenDelay {
					changed = res.in[s].join(edge)
					if changed {
						joins[s]++
					}
				} else {
					changed = res.in[s].widenFrom(edge)
				}
			} else {
				changed = res.in[s].join(edge)
			}
			if changed && !inQueue[s] {
				inQueue[s] = true
				heap.Push(wl, s)
			}
		}
	}

	narrow(p, succs, order, res)
	return res
}

// narrow runs descending sweeps from the post-fixpoint: each in-state
// is recomputed from its predecessors' transferred out-states (plus the
// entry seed). From a post-fixpoint, chaotic descending iteration stays
// above the least fixpoint, so updating in place is sound.
func narrow(p *isa.Program, succs [][]int, order []int, res *absResult) {
	n := len(p.Insts)
	type predEdge struct{ pc, ei int }
	preds := make([][]predEdge, n)
	for pc := range succs {
		if !res.in[pc].live {
			continue
		}
		for ei, s := range succs[pc] {
			if res.edgeLive[pc][ei] {
				preds[s] = append(preds[s], predEdge{pc, ei})
			}
		}
	}
	isEntry := make(map[int][]int) // pc -> harts entering there
	for hart, e := range p.Entries {
		isEntry[int(e)] = append(isEntry[int(e)], hart)
	}
	const sweeps = 3
	for pass := 0; pass < sweeps; pass++ {
		changed := false
		for _, pc := range order {
			var acc absState
			for _, hart := range isEntry[pc] {
				seed := entrySeed(p, hart)
				acc.join(&seed)
			}
			for _, pe := range preds[pc] {
				if !res.in[pe.pc].live {
					continue
				}
				st := res.in[pe.pc]
				absTransfer(p.Insts[pe.pc], pe.pc, &st)
				edge, feasible := edgeState(p.Insts[pe.pc], pe.pc, &st, pe.ei, pc)
				if !feasible {
					res.edgeLive[pe.pc][pe.ei] = false
					continue
				}
				acc.join(edge)
			}
			if !acc.live {
				continue // keep the fixpoint state rather than going bottom
			}
			if !acc.equal(&res.in[pc]) {
				res.in[pc] = acc
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// edgeState derives the state flowing along out-edge ei of pc from the
// already-transferred out-state. Branch edges are refined by the
// condition (edge 0 = taken, edge 1 = fall-through); the return edge of
// a call clobbers every register. feasible=false means the refinement
// proved the edge cannot be taken.
func edgeState(in isa.Inst, pc int, out *absState, ei, succ int) (*absState, bool) {
	if isa.ClassOf(in.Op) == isa.ClassBranch {
		st := *out
		if !refineBranch(&st, in, ei == 0) {
			return nil, false
		}
		return &st, true
	}
	if in.Op == isa.OpJAL && in.Rd != isa.Zero && succ == pc+1 && ei == 1 {
		var st absState
		st.setTop() // returning callee: values unknown
		return &st, true
	}
	return out, true
}

// refineBranch narrows the operand values of a conditional branch on
// one out-edge, returning false when the edge is infeasible.
func refineBranch(st *absState, in isa.Inst, taken bool) bool {
	op := in.Op
	if !taken { // negate the condition for the fall-through edge
		switch op {
		case isa.OpBEQ:
			op = isa.OpBNE
		case isa.OpBNE:
			op = isa.OpBEQ
		case isa.OpBLT:
			op = isa.OpBGE
		case isa.OpBGE:
			op = isa.OpBLT
		case isa.OpBLTU:
			op = isa.OpBGEU
		case isa.OpBGEU:
			op = isa.OpBLTU
		}
	}
	a := st.getX(in.Rs1)
	b := st.getX(in.Rs2)
	if a.IsBot() || b.IsBot() {
		return false
	}
	if in.Rs1 == in.Rs2 {
		switch op {
		case isa.OpBNE, isa.OpBLT, isa.OpBLTU:
			return false // x<x / x!=x can never hold
		}
		return true
	}
	var na, nb AbsVal
	switch op {
	case isa.OpBEQ:
		na = a.Meet(b)
		nb = na
	case isa.OpBNE:
		na, nb = a, b
		if v, ok := b.IsConst(); ok {
			na = excludeConst(a, v)
		}
		if v, ok := a.IsConst(); ok {
			nb = excludeConst(b, v)
		}
	case isa.OpBLT: // a < b signed
		if b.Hi == math.MinInt64 || a.Lo == math.MaxInt64 {
			return false
		}
		na = a.Meet(RangeVal(math.MinInt64, b.Hi-1))
		nb = b.Meet(RangeVal(a.Lo+1, math.MaxInt64))
	case isa.OpBGE: // a >= b signed
		na = a.Meet(RangeVal(b.Lo, math.MaxInt64))
		nb = b.Meet(RangeVal(math.MinInt64, a.Hi))
	case isa.OpBLTU: // a < b unsigned
		na, nb = a, b
		if b.Lo >= 0 {
			if b.Hi == 0 {
				return false // nothing is unsigned-below zero
			}
			// b < 2^63 unsigned forces a into [0, b.Hi-1] as a signed value.
			na = a.Meet(RangeVal(0, b.Hi-1))
			alo, _ := uRange(a)
			if alo > uint64(b.Hi) {
				return false
			}
			if alo <= uint64(math.MaxInt64) {
				nb = b.Meet(RangeVal(int64(alo)+1, math.MaxInt64))
			}
		}
	case isa.OpBGEU: // a >= b unsigned
		na, nb = a, b
		if a.Lo >= 0 {
			// a < 2^63 unsigned forces b into [0, a.Hi].
			nb = b.Meet(RangeVal(0, a.Hi))
			if b.Lo >= 0 {
				na = a.Meet(RangeVal(b.Lo, math.MaxInt64))
			}
		}
	default:
		return true
	}
	if na.IsBot() || nb.IsBot() {
		return false
	}
	st.setX(in.Rs1, na)
	st.setX(in.Rs2, nb)
	return true
}

// excludeConst trims v off an interval endpoint; interior exclusions
// are not representable and pass through.
func excludeConst(a AbsVal, v uint64) AbsVal {
	if w, ok := a.IsConst(); ok && w == v {
		return BotVal()
	}
	sv := int64(v)
	switch {
	case a.Lo == sv:
		return a.Meet(RangeVal(sv+1, math.MaxInt64))
	case a.Hi == sv:
		return a.Meet(RangeVal(math.MinInt64, sv-1))
	}
	return a
}

// absTransfer applies one instruction's effect to the abstract state,
// mirroring emu.Hart.StepDecoded exactly.
func absTransfer(in isa.Inst, pc int, st *absState) {
	imm := ConstVal(uint64(in.Imm))
	switch in.Op {
	case isa.OpADD:
		st.setX(in.Rd, avAdd(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpSUB:
		st.setX(in.Rd, avSub(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpMUL:
		st.setX(in.Rd, avMul(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpDIV:
		st.setX(in.Rd, avDiv(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpREM:
		st.setX(in.Rd, avRem(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpAND:
		st.setX(in.Rd, avAnd(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpOR:
		st.setX(in.Rd, avOr(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpXOR:
		st.setX(in.Rd, avXor(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpSLL:
		st.setX(in.Rd, avShl(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpSRL:
		st.setX(in.Rd, avShr(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpSRA:
		st.setX(in.Rd, avSar(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpSLT:
		st.setX(in.Rd, avSltSigned(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpSLTU:
		st.setX(in.Rd, avSltU(st.getX(in.Rs1), st.getX(in.Rs2)))
	case isa.OpADDI:
		st.setX(in.Rd, avAdd(st.getX(in.Rs1), imm))
	case isa.OpANDI:
		st.setX(in.Rd, avAnd(st.getX(in.Rs1), imm))
	case isa.OpORI:
		st.setX(in.Rd, avOr(st.getX(in.Rs1), imm))
	case isa.OpXORI:
		st.setX(in.Rd, avXor(st.getX(in.Rs1), imm))
	case isa.OpSLLI:
		st.setX(in.Rd, avShlConst(st.getX(in.Rs1), uint64(in.Imm)))
	case isa.OpSRLI:
		st.setX(in.Rd, avShrConst(st.getX(in.Rs1), uint64(in.Imm)))
	case isa.OpSRAI:
		st.setX(in.Rd, avSarConst(st.getX(in.Rs1), uint64(in.Imm)))
	case isa.OpSLTI:
		st.setX(in.Rd, avSltSigned(st.getX(in.Rs1), imm))
	case isa.OpLUI:
		st.setX(in.Rd, imm)

	case isa.OpFADD:
		st.f[in.Rd] = fAdd(st.f[in.Rs1], st.f[in.Rs2])
	case isa.OpFSUB:
		st.f[in.Rd] = fSub(st.f[in.Rs1], st.f[in.Rs2])
	case isa.OpFMUL:
		st.f[in.Rd] = fMul(st.f[in.Rs1], st.f[in.Rs2])
	case isa.OpFDIV:
		st.f[in.Rd] = fDiv(st.f[in.Rs1], st.f[in.Rs2])
	case isa.OpFSQRT:
		st.f[in.Rd] = fSqrt(st.f[in.Rs1])
	case isa.OpFMIN:
		st.f[in.Rd] = fMin(st.f[in.Rs1], st.f[in.Rs2])
	case isa.OpFMAX:
		st.f[in.Rd] = fMax(st.f[in.Rs1], st.f[in.Rs2])
	case isa.OpFNEG:
		st.f[in.Rd] = fNeg(st.f[in.Rs1])
	case isa.OpFABS:
		st.f[in.Rd] = fAbs(st.f[in.Rs1])
	case isa.OpFCVTIF:
		st.f[in.Rd] = fCvtIF(st.getX(in.Rs1))
	case isa.OpFCVTFI:
		st.setX(in.Rd, fCvtFI(st.f[in.Rs1]))
	case isa.OpFMVIF:
		st.f[in.Rd] = fMvIF(st.getX(in.Rs1))
	case isa.OpFMVFI:
		st.setX(in.Rd, fMvFI(st.f[in.Rs1]))
	case isa.OpFEQ:
		st.setX(in.Rd, fEq(st.f[in.Rs1], st.f[in.Rs2]))
	case isa.OpFLT:
		st.setX(in.Rd, fLt(st.f[in.Rs1], st.f[in.Rs2]))

	case isa.OpLD:
		st.setX(in.Rd, avLoad(in.Size))
	case isa.OpFLD:
		st.f[in.Rd] = TopF()
	case isa.OpGLD:
		st.setX(in.Rd, avAdd(avLoad(in.Size), avLoad(in.Size)))
	case isa.OpSWP:
		st.setX(in.Rd, TopVal())
	case isa.OpST, isa.OpFST, isa.OpSST:
		// no register effect

	case isa.OpJAL, isa.OpJALR:
		st.setX(in.Rd, ConstVal(uint64(pc)+1))
	case isa.OpRAND, isa.OpCYCLE:
		st.setX(in.Rd, TopVal())
	}
}
