// Termination-bound analysis: upgrades "has a path to HALT"
// reachability into "provably halts within N instructions". The live
// CFG is condensed into strongly connected components; an SCC is
// bounded when an induction argument limits how often it can cycle —
// a register whose every definition inside the region is an
// `ADDI r, r, c` with a consistent sign, against the interval the
// abstract interpretation proved for it at those definitions. SCCs
// that resist the argument carry a SevWarn (or SevInfo when the exit
// condition is data-dependent, e.g. a spin loop on a loaded flag).

package verify

import (
	"math"
	"sort"

	"paraverser/internal/isa"
)

// boundCap saturates termination bounds; anything at or above it is
// reported as unbounded-but-finite rather than risking overflow.
const boundCap = int64(1) << 62

func satAdd(a, b int64) int64 {
	if a >= boundCap || b >= boundCap || a > boundCap-b {
		return boundCap
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= boundCap || b >= boundCap || a > boundCap/b {
		return boundCap
	}
	return a * b
}

// sccs computes strongly connected components (Tarjan, iterative) over
// the live nodes of the CFG, honouring edge feasibility. Components
// come out in reverse topological order.
func sccs(n int, succs [][]int, live func(int) bool, edgeLive [][]bool) [][]int {
	const unvisited = -1
	index := make([]int, n)
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		counter int
		stack   []int
		comps   [][]int
	)
	type frame struct{ pc, next int }
	var call []frame
	for root := 0; root < n; root++ {
		if !live(root) || index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{pc: root})
		index[root], lowlink[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			advanced := false
			for f.next < len(succs[f.pc]) {
				ei := f.next
				s := succs[f.pc][ei]
				f.next++
				if !live(s) || !edgeLive[f.pc][ei] {
					continue
				}
				if index[s] == unvisited {
					index[s], lowlink[s] = counter, counter
					counter++
					stack = append(stack, s)
					onStack[s] = true
					call = append(call, frame{pc: s})
					advanced = true
					break
				}
				if onStack[s] && index[s] < lowlink[f.pc] {
					lowlink[f.pc] = index[s]
				}
			}
			if advanced {
				continue
			}
			pc := f.pc
			call = call[:len(call)-1]
			if len(call) > 0 {
				if q := call[len(call)-1].pc; lowlink[pc] < lowlink[q] {
					lowlink[q] = lowlink[pc]
				}
			}
			if lowlink[pc] == index[pc] {
				var comp []int
				for {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[v] = false
					comp = append(comp, v)
					if v == pc {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// regionInfo captures one cyclic region under analysis: a node set
// plus the feasible internal edges.
type regionInfo struct {
	nodes []int
	in    map[int]bool
}

// checkTermination runs the induction-bound analysis over the absint
// result and fills Report.MaxInsts. One finding is emitted per
// unbounded SCC that has an exit (no-exit SCCs are already RuleHalt
// errors): SevInfo when the exit condition is data-dependent, SevWarn
// otherwise. Each SCC's per-entry bound is then weighted by how often
// control can enter it (weightedTotal), so a callee body counts once
// per call.
func checkTermination(p *isa.Program, res *absResult, r *Report) {
	n := len(p.Insts)
	live := func(pc int) bool { return res.in[pc].live }
	comps := sccs(n, res.succs, live, res.edgeLive)

	perEntry := make([]int64, len(comps))
	allBounded := true
	for ci, comp := range comps {
		inComp := make(map[int]bool, len(comp))
		for _, pc := range comp {
			inComp[pc] = true
		}
		cyclic := len(comp) > 1
		if !cyclic { // a single node is a cycle only when it self-loops
			pc := comp[0]
			for ei, s := range res.succs[pc] {
				if s == pc && res.edgeLive[pc][ei] {
					cyclic = true
				}
			}
		}
		if !cyclic {
			perEntry[ci] = 1
			continue
		}
		region := &regionInfo{nodes: comp, in: inComp}
		if b, ok := boundRegion(p, res, region, 0); ok {
			perEntry[ci] = b
			continue
		}
		allBounded = false
		hasExit, tainted := classifyExits(p, res, region)
		if !hasExit {
			continue // RuleHalt already reports the unconditional loop
		}
		first := comp[0]
		for _, pc := range comp {
			if pc < first {
				first = pc
			}
		}
		if tainted {
			r.addf(SevInfo, RuleTermination, first,
				"loop of %d instruction(s) at pc %d exits on a data-dependent condition — termination not statically bounded",
				len(comp), first)
		} else {
			r.addf(SevWarn, RuleTermination, first,
				"loop of %d instruction(s) at pc %d has no provable iteration bound",
				len(comp), first)
		}
	}
	if !allBounded {
		return
	}
	total, ok := weightedTotal(p, res, comps, perEntry, r)
	if ok && total < boundCap {
		r.MaxInsts = total
	}
}

// isCallEdge reports whether out-edge ei of pc is a call's jump to its
// callee (buildCFG lists a linking JAL's target first, then its return
// point).
func isCallEdge(in isa.Inst, ei int) bool {
	return in.Op == isa.OpJAL && in.Rd != isa.Zero && ei == 0
}

// weightedTotal sums, over the condensed CFG, each SCC's per-entry
// bound times the number of times control can enter it, returning
// false when a call is recursive (its callee shares the caller's SCC).
//
// The argument is by activation: the hart's top-level run, and each
// execution of a call site, starts one activation. Within an
// activation, control follows plain edges and call-return edges (a
// call's pc -> pc+1), which never leave the condensation's topological
// order, so an activation enters each SCC at most once. An SCC is thus
// entered at most as many times as the activations that can reach it:
// one for the top level, plus, per callee whose activations reach it,
// the executions of that callee's call sites. Reachability is a set
// union, so a diamond of plain edges costs nothing extra; only calls
// multiply.
func weightedTotal(p *isa.Program, res *absResult, comps [][]int, perEntry []int64, r *Report) (int64, bool) {
	n := len(p.Insts)
	compOf := make([]int, n)
	for i := range compOf {
		compOf[i] = -1
	}
	for ci, comp := range comps {
		for _, pc := range comp {
			compOf[pc] = ci
		}
	}
	// Activation starts: index 0 is the top level, then one per callee.
	startOf := make([]int, n)
	callers := make([][]int, n)
	nStarts := 1
	for pc, in := range p.Insts {
		if compOf[pc] < 0 {
			continue
		}
		for ei, s := range res.succs[pc] {
			if !isCallEdge(in, ei) || !res.edgeLive[pc][ei] || compOf[s] < 0 {
				continue
			}
			if compOf[s] == compOf[pc] {
				r.addf(SevWarn, RuleTermination, pc,
					"recursive call at pc %d: termination not statically bounded", pc)
				return 0, false
			}
			if len(callers[s]) == 0 {
				startOf[s] = nStarts
				nStarts++
			}
			callers[s] = append(callers[s], pc)
		}
	}
	isEntry := make([]bool, n)
	for _, e := range p.Entries {
		isEntry[e] = true
	}

	words := (nStarts + 63) / 64
	reached := make([]uint64, len(comps)*words) // starts reaching each SCC
	weight := make([]int64, nStarts)            // activations per start
	weight[0] = 1
	execs := make([]int64, len(comps)) // instruction executions per SCC
	total := int64(0)
	// sccs emits components in reverse topological order.
	for ci := len(comps) - 1; ci >= 0; ci-- {
		set := reached[ci*words : (ci+1)*words]
		for _, pc := range comps[ci] {
			if isEntry[pc] {
				set[0] |= 1
			}
			if len(callers[pc]) > 0 {
				w := int64(0)
				for _, c := range callers[pc] {
					w = satAdd(w, execs[compOf[c]])
				}
				s := startOf[pc]
				weight[s] = w
				set[s/64] |= 1 << (s % 64)
			}
		}
		entries := int64(0)
		for s := 0; s < nStarts; s++ {
			if set[s/64]&(1<<(s%64)) != 0 {
				entries = satAdd(entries, weight[s])
			}
		}
		execs[ci] = satMul(entries, perEntry[ci])
		total = satAdd(total, execs[ci])
		for _, pc := range comps[ci] {
			for ei, s := range res.succs[pc] {
				cs := compOf[s]
				if cs < 0 || cs == ci || !res.edgeLive[pc][ei] || isCallEdge(p.Insts[pc], ei) {
					continue
				}
				dst := reached[cs*words : (cs+1)*words]
				for w := range dst {
					dst[w] |= set[w]
				}
			}
		}
	}
	return total, true
}

// maxDepth caps the recursive remainder decomposition of boundRegion.
const maxDepth = 6

// boundRegion proves an execution bound for one cyclic region. The
// induction argument: pick a register r whose every definition inside
// the region is `ADDI r, r, c` with all c the same sign. Each visit to
// a definition moves r monotonically through the interval the fixpoint
// proved at that point, so the definitions execute at most
// width/min|c| + 1 times. Removing the definition nodes cuts every
// cycle through them; the remaining sub-regions are bounded
// recursively, and the region bound is (defExecs+1) passes over the
// remainder plus the definition visits themselves.
func boundRegion(p *isa.Program, res *absResult, reg *regionInfo, depth int) (int64, bool) {
	if depth > maxDepth {
		return 0, false
	}
	// A call inside the region clobbers every register on return, which
	// breaks any induction argument through it.
	for _, pc := range reg.nodes {
		in := p.Insts[pc]
		if in.Op == isa.OpJAL && in.Rd != isa.Zero && reg.in[pc+1] {
			return 0, false
		}
	}
	// Candidate induction registers: defined in the region only by
	// self-ADDIs of consistent sign.
	type cand struct {
		defs []int
		step int64 // minimum |c|
		neg  bool
	}
	cands := map[isa.Reg]*cand{}
	disqualified := map[isa.Reg]bool{}
	for _, pc := range reg.nodes {
		in := p.Insts[pc]
		_, defs := usesDefs(in)
		for xr := isa.Reg(1); xr < isa.NumIntRegs; xr++ {
			if defs&xbit(xr) == 0 {
				continue
			}
			if in.Op == isa.OpADDI && in.Rd == xr && in.Rs1 == xr && in.Imm != 0 {
				c := cands[xr]
				if c == nil {
					c = &cand{step: math.MaxInt64}
					cands[xr] = c
				}
				c.defs = append(c.defs, pc)
				abs, neg := in.Imm, false
				if abs < 0 {
					abs, neg = -abs, true
				}
				if len(c.defs) == 1 {
					c.neg = neg
				} else if c.neg != neg {
					disqualified[xr] = true
				}
				if abs < c.step {
					c.step = abs
				}
			} else {
				disqualified[xr] = true
			}
		}
	}
	// Candidates are tried in register order: min-over-candidates is
	// order-insensitive in value, but a sorted walk keeps the analysis
	// provably deterministic (and paralint-clean) for free.
	regs := make([]isa.Reg, 0, len(cands))
	for xr := range cands {
		regs = append(regs, xr)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	best := int64(-1)
	for _, xr := range regs {
		c := cands[xr]
		if disqualified[xr] || c.step <= 0 || c.step >= 1<<24 {
			continue
		}
		// Join the proved interval for xr at every definition site.
		iv := BotVal()
		for _, pc := range c.defs {
			iv = iv.Join(res.in[pc].getX(xr))
		}
		if iv.IsBot() || iv.Lo <= -(int64(1)<<61) || iv.Hi >= int64(1)<<61 {
			continue // wide enough that wrapping could defeat monotonicity
		}
		width := iv.Hi - iv.Lo
		defExecs := satAdd(width/c.step, 2)
		// Remove the definition nodes and bound what remains.
		rest, ok := subRegions(p, res, reg, c.defs)
		if !ok {
			continue
		}
		inner := int64(0)
		for _, sub := range rest {
			b, ok := boundRegion(p, res, sub, depth+1)
			if !ok {
				inner = -1
				break
			}
			inner = satAdd(inner, b)
		}
		if inner < 0 {
			continue
		}
		// Straight-line remainder nodes between cycles count once per pass.
		straight := int64(len(reg.nodes) - len(c.defs))
		for _, sub := range rest {
			straight -= int64(len(sub.nodes))
		}
		perPass := satAdd(inner, straight)
		bound := satAdd(satMul(satAdd(defExecs, 1), perPass), defExecs)
		if best < 0 || bound < best {
			best = bound
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// subRegions removes the cut nodes from a region and returns the
// remaining cyclic sub-regions (SCCs of the remainder graph).
func subRegions(p *isa.Program, res *absResult, reg *regionInfo, cut []int) ([]*regionInfo, bool) {
	removed := make(map[int]bool, len(cut))
	for _, pc := range cut {
		removed[pc] = true
	}
	live := func(pc int) bool {
		return res.in[pc].live && reg.in[pc] && !removed[pc]
	}
	comps := sccs(len(p.Insts), res.succs, live, res.edgeLive)
	var out []*regionInfo
	for _, comp := range comps {
		cyclic := len(comp) > 1
		if !cyclic {
			pc := comp[0]
			for ei, s := range res.succs[pc] {
				if s == pc && res.edgeLive[pc][ei] {
					cyclic = true
				}
			}
		}
		if !cyclic {
			continue
		}
		in := make(map[int]bool, len(comp))
		for _, pc := range comp {
			in[pc] = true
		}
		out = append(out, &regionInfo{nodes: comp, in: in})
	}
	return out, true
}

// classifyExits reports whether a region has any feasible edge leaving
// it, and whether any branch inside it reads a data-tainted register —
// one whose value (transitively) came from memory, RAND, CYCLE or the
// FP file. A tainted branch means the region's iteration count depends
// on runtime data (a spin-wait, a lock acquire, a convergence test),
// which no static bound can capture — SevInfo. A region with only
// untainted branches that still resists the induction argument is
// suspicious — SevWarn.
func classifyExits(p *isa.Program, res *absResult, reg *regionInfo) (hasExit, tainted bool) {
	// Fixpoint of a taint regset over the region's instructions.
	taint := make(map[int]regset, len(reg.nodes))
	for {
		changed := false
		for _, pc := range reg.nodes {
			in := p.Insts[pc]
			uses, defs := usesDefs(in)
			var tin regset
			for _, q := range reg.nodes {
				for ei, s := range res.succs[q] {
					if s == pc && res.edgeLive[q][ei] {
						tin |= taint[q]
					}
				}
			}
			tout := tin
			sourced := false
			switch in.Op {
			case isa.OpLD, isa.OpFLD, isa.OpGLD, isa.OpSWP, isa.OpRAND, isa.OpCYCLE:
				sourced = true
			case isa.OpFCVTFI, isa.OpFMVFI, isa.OpFEQ, isa.OpFLT:
				sourced = true // the FP file is data in this classification
			case isa.OpJAL:
				if in.Rd != isa.Zero && reg.in[pc+1] {
					tout |= allRegs // a returning call taints everything
				}
			}
			if sourced || uses&tin != 0 {
				tout |= defs
			}
			if tout != taint[pc] {
				taint[pc] = tout
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, pc := range reg.nodes {
		in := p.Insts[pc]
		for ei, s := range res.succs[pc] {
			if res.edgeLive[pc][ei] && !reg.in[s] {
				hasExit = true
			}
		}
		if len(res.succs[pc]) == 0 { // terminator inside the region
			hasExit = true
		}
		if isa.ClassOf(in.Op) == isa.ClassBranch {
			uses, _ := usesDefs(in)
			var tin regset
			for _, q := range reg.nodes {
				for ei, s := range res.succs[q] {
					if s == pc && res.edgeLive[q][ei] {
						tin |= taint[q]
					}
				}
			}
			if uses&tin != 0 {
				tainted = true
			}
		}
	}
	return hasExit, tainted
}
