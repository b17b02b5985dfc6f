// Package verify is a static verifier for assembled isa.Programs. It
// builds the control-flow graph of a program and proves, without
// executing it, a set of structural properties the dynamic layers
// assume:
//
//   - every branch and jump target lands inside the program, and no
//     reachable path falls off the end of the instruction stream;
//   - from every reachable instruction some HALT (or a function return)
//     remains reachable — a region that can never reach an exit is an
//     unconditional infinite loop;
//   - no reachable instruction reads an integer or floating-point
//     register on a path where nothing has defined it (entry state: X0,
//     SP, GP and TP are architecturally initialised by the loader);
//   - memory accesses stay inside the declared data segment: an
//     abstract interpretation (absint.go) proves an interval and an
//     alignment for every register at every program point — including
//     loop-carried induction addresses — and accesses whose proved
//     interval lies outside the segment, or whose near misses land in a
//     guard window around it, are reported as errors rather than
//     silently touching unmapped memory;
//   - the program provably halts within a computed instruction bound
//     (Report.MaxInsts): cyclic regions are bounded by an induction
//     argument over their counter registers (termination.go), and loops
//     that resist the argument carry a SevWarn — or a SevInfo when the
//     exit condition is data-dependent, as in a spin-wait;
//   - non-repeatable instructions (RAND, CYCLE) are enumerated, since
//     each one obligates a load-store-log slot for exact replay.
//
// The analysis is deliberately conservative where the CFG is not static:
// an indirect jump (JALR) is treated as a function return / exit, and a
// call (JAL with a live link register) is assumed to return to the next
// instruction with every register defined and no value knowledge.
// Severity separates hard contract violations (SevError) from
// informational classification (SevInfo) and hygiene findings (SevWarn);
// only SevError findings fail Check.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"paraverser/internal/isa"
)

// Severity ranks findings.
type Severity uint8

// Severities, least severe first. Only SevError fails Check.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("sev(%d)", uint8(s))
}

// Rules name the check a finding came from.
const (
	RuleValidate  = "validate"  // isa.Program.Validate failure
	RuleCFG       = "cfg"       // fall-off-end / malformed control flow
	RuleHalt      = "halt"      // no path to HALT or return
	RuleUseDef    = "usedef"    // register read before any definition
	RuleBounds    = "bounds"    // statically resolvable access outside data
	RuleDeadCode  = "deadcode"  // instructions unreachable from any entry
	RuleNonRepeat = "nonrepeat" // RAND/CYCLE census (informational)
	// RuleTermination marks loops with no provable iteration bound:
	// SevWarn, or SevInfo when the exit condition is data-dependent.
	RuleTermination = "termination"
)

// Finding is one verifier result.
type Finding struct {
	Sev  Severity
	Rule string
	PC   int // -1 when the finding is not tied to one instruction
	Msg  string
}

func (f Finding) String() string {
	if f.PC < 0 {
		return fmt.Sprintf("%s: %s: %s", f.Sev, f.Rule, f.Msg)
	}
	return fmt.Sprintf("%s: %s: pc %d: %s", f.Sev, f.Rule, f.PC, f.Msg)
}

// Report is the full verifier output for one program.
type Report struct {
	Program  string
	Findings []Finding
	// Reachable[pc] reports whether any entry point can reach pc.
	Reachable []bool
	// NonRepeat lists the reachable PCs of RAND/CYCLE instructions, in
	// order — each needs a load-store-log slot for replay.
	NonRepeat []int
	// MaxInsts is the proved per-hart bound on retired instructions, 0
	// when any reachable loop resisted the termination analysis.
	MaxInsts int64
	// MemFacts records the interval the abstract interpretation proved
	// for each reachable memory access, in PC order.
	MemFacts []MemFact
}

// MemFact is the proved address range of one memory access operand.
type MemFact struct {
	PC    int
	What  string // "effective", "first", "second"
	Addr  AbsVal // abstract effective address
	Size  uint8
	Align uint64 // provable address alignment (power of two)
	// Proved reports the access is entirely inside the data segment;
	// Violation that it is provably (or near-miss) outside.
	Proved, Violation bool
}

// Errors returns only the SevError findings.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Sev == SevError {
			out = append(out, f)
		}
	}
	return out
}

// Err summarises the report as an error: nil when no SevError finding
// exists, otherwise one error naming the program and every violation.
func (r *Report) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, len(errs))
	for i, f := range errs {
		msgs[i] = f.String()
	}
	return fmt.Errorf("verify %q: %d violation(s):\n  %s",
		r.Program, len(errs), strings.Join(msgs, "\n  "))
}

func (r *Report) addf(sev Severity, rule string, pc int, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Sev: sev, Rule: rule, PC: pc, Msg: fmt.Sprintf(format, args...)})
}

// Check verifies the program and returns the aggregated error, nil when
// it proves clean.
func Check(p *isa.Program) error { return Verify(p).Err() }

// Verify runs every check and returns the full report.
func Verify(p *isa.Program) *Report {
	r := &Report{Program: p.Name}
	if err := p.Validate(); err != nil {
		r.addf(SevError, RuleValidate, -1, "%v", err)
		return r // CFG construction assumes Validate's range guarantees
	}
	n := len(p.Insts)
	r.Reachable = make([]bool, n)

	succs, terminator := buildCFG(p, r)
	reach(p, succs, r)
	checkHaltReachable(p, succs, terminator, r)
	checkUseBeforeDef(p, succs, r)
	abs := runAbsint(p, succs)
	checkTermination(p, abs, r)
	checkStaticBounds(p, abs, r)
	censusNonRepeat(p, r)
	checkDeadCode(p, abs, r)

	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		return a.PC < b.PC
	})
	return r
}

// buildCFG computes the successor sets. A conditional branch has the
// fall-through and the target; JAL has its target, plus the return point
// when it links (a call); JALR and HALT terminate. Falling off the end
// of the instruction stream is reported here.
func buildCFG(p *isa.Program, r *Report) (succs [][]int, terminator []bool) {
	n := len(p.Insts)
	succs = make([][]int, n)
	terminator = make([]bool, n)
	for pc, in := range p.Insts {
		switch {
		case in.Op == isa.OpHALT || in.Op == isa.OpJALR:
			terminator[pc] = true
		case in.Op == isa.OpJAL:
			tgt := pc + int(in.Imm)
			succs[pc] = append(succs[pc], tgt)
			if in.Rd != isa.Zero {
				// A call: assume the callee returns to pc+1.
				if pc+1 >= n {
					r.addf(SevError, RuleCFG, pc, "call at the last instruction has no return point (%s)", in)
				} else {
					succs[pc] = append(succs[pc], pc+1)
				}
			}
		case isa.ClassOf(in.Op) == isa.ClassBranch:
			succs[pc] = append(succs[pc], pc+int(in.Imm))
			fallthroughTo(pc, n, in, r, &succs[pc])
		default:
			fallthroughTo(pc, n, in, r, &succs[pc])
		}
	}
	return succs, terminator
}

func fallthroughTo(pc, n int, in isa.Inst, r *Report, out *[]int) {
	if pc+1 >= n {
		r.addf(SevError, RuleCFG, pc, "control falls off the end of the program after %s", in)
		return
	}
	*out = append(*out, pc+1)
}

// reach marks everything reachable from any entry point.
func reach(p *isa.Program, succs [][]int, r *Report) {
	var stack []int
	for _, e := range p.Entries {
		if !r.Reachable[e] {
			r.Reachable[e] = true
			stack = append(stack, int(e))
		}
	}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs[pc] {
			if !r.Reachable[s] {
				r.Reachable[s] = true
				stack = append(stack, s)
			}
		}
	}
}

// checkHaltReachable verifies that every reachable instruction can still
// reach a terminator (HALT or a return). A reachable region with no such
// path is an unconditional infinite loop.
func checkHaltReachable(p *isa.Program, succs [][]int, terminator []bool, r *Report) {
	n := len(p.Insts)
	preds := make([][]int, n)
	for pc, ss := range succs {
		if !r.Reachable[pc] {
			continue
		}
		for _, s := range ss {
			preds[s] = append(preds[s], pc)
		}
	}
	canExit := make([]bool, n)
	var stack []int
	for pc := 0; pc < n; pc++ {
		if r.Reachable[pc] && terminator[pc] {
			canExit[pc] = true
			stack = append(stack, pc)
		}
	}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range preds[pc] {
			if !canExit[q] {
				canExit[q] = true
				stack = append(stack, q)
			}
		}
	}
	stuck := -1
	count := 0
	for pc := 0; pc < n; pc++ {
		if r.Reachable[pc] && !canExit[pc] {
			if stuck < 0 {
				stuck = pc
			}
			count++
		}
	}
	if stuck >= 0 {
		r.addf(SevError, RuleHalt, stuck,
			"%d reachable instruction(s) starting at pc %d (%s) have no path to HALT or a return — unconditional infinite loop",
			count, stuck, p.Insts[stuck])
	}
}

// --- use-before-def dataflow ---

// Register bitsets: bit r is integer register Xr; bit 32+r is Fr.
type regset uint64

const (
	allRegs regset = ^regset(0)
	// entryRegs is what the loader architecturally initialises before the
	// first instruction: X0 is hard-wired, and emu.NewHart/NewMachine set
	// SP, TP and GP.
	entryRegs = regset(1)<<uint(isa.Zero) | regset(1)<<uint(isa.SP) |
		regset(1)<<uint(isa.GP) | regset(1)<<uint(isa.TP)
)

func xbit(r isa.Reg) regset { return regset(1) << uint(r) }
func fbit(r isa.Reg) regset { return regset(1) << (32 + uint(r)) }

// usesDefs returns the registers an instruction reads and writes.
func usesDefs(in isa.Inst) (uses, defs regset) {
	switch in.Op {
	case isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpDIV, isa.OpREM,
		isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL, isa.OpSRA,
		isa.OpSLT, isa.OpSLTU:
		return xbit(in.Rs1) | xbit(in.Rs2), xbit(in.Rd)
	case isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI,
		isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLTI:
		return xbit(in.Rs1), xbit(in.Rd)
	case isa.OpLUI:
		return 0, xbit(in.Rd)
	case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV, isa.OpFMIN, isa.OpFMAX:
		return fbit(in.Rs1) | fbit(in.Rs2), fbit(in.Rd)
	case isa.OpFSQRT, isa.OpFNEG, isa.OpFABS:
		return fbit(in.Rs1), fbit(in.Rd)
	case isa.OpFCVTIF, isa.OpFMVIF:
		return xbit(in.Rs1), fbit(in.Rd)
	case isa.OpFCVTFI, isa.OpFMVFI:
		return fbit(in.Rs1), xbit(in.Rd)
	case isa.OpFEQ, isa.OpFLT:
		return fbit(in.Rs1) | fbit(in.Rs2), xbit(in.Rd)
	case isa.OpLD:
		return xbit(in.Rs1), xbit(in.Rd)
	case isa.OpFLD:
		return xbit(in.Rs1), fbit(in.Rd)
	case isa.OpST:
		return xbit(in.Rs1) | xbit(in.Rs2), 0
	case isa.OpFST:
		return xbit(in.Rs1) | fbit(in.Rs2), 0
	case isa.OpGLD:
		return xbit(in.Rs1) | xbit(in.Rs2), xbit(in.Rd)
	case isa.OpSST:
		// Scatter stores the value in Rd to both addresses.
		return xbit(in.Rs1) | xbit(in.Rs2) | xbit(in.Rd), 0
	case isa.OpSWP:
		return xbit(in.Rs1) | xbit(in.Rs2), xbit(in.Rd)
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		return xbit(in.Rs1) | xbit(in.Rs2), 0
	case isa.OpJAL:
		return 0, xbit(in.Rd)
	case isa.OpJALR:
		return xbit(in.Rs1), xbit(in.Rd)
	case isa.OpRAND, isa.OpCYCLE:
		return 0, xbit(in.Rd)
	}
	return 0, 0 // NOP, PAUSE, HALT
}

// checkUseBeforeDef runs a forward must-be-defined dataflow (meet =
// intersection) and reports reads of never-defined registers. Writes to
// X0 are discarded by hardware, so X0 never counts as a definition
// target but is always defined. After a call, every register is assumed
// defined — the callee's effect is unknown, and the entry-path check
// inside the callee covers its own reads.
func checkUseBeforeDef(p *isa.Program, succs [][]int, r *Report) {
	n := len(p.Insts)
	in := make([]regset, n)
	seen := make([]bool, n)
	for i := range in {
		in[i] = allRegs // ⊤ until first visited
	}
	var work []int
	for _, e := range p.Entries {
		in[e] = entryRegs
		seen[e] = true
		work = append(work, int(e))
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		inst := p.Insts[pc]
		_, defs := usesDefs(inst)
		out := in[pc] | defs | xbit(isa.Zero)
		isCall := inst.Op == isa.OpJAL && inst.Rd != isa.Zero
		for _, s := range succs[pc] {
			sout := out
			if isCall && s == pc+1 {
				sout = allRegs // returning callee: assume everything defined
			}
			next := in[s] & sout
			if !seen[s] || next != in[s] {
				in[s] = next
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	for pc := 0; pc < n; pc++ {
		if !r.Reachable[pc] {
			continue
		}
		uses, _ := usesDefs(p.Insts[pc])
		if missing := uses &^ in[pc]; missing != 0 {
			r.addf(SevError, RuleUseDef, pc, "%s reads %s on a path where nothing has defined it",
				p.Insts[pc], regsetNames(missing))
		}
	}
}

func regsetNames(s regset) string {
	var names []string
	for r := 0; r < 32; r++ {
		if s&(regset(1)<<uint(r)) != 0 {
			names = append(names, fmt.Sprintf("x%d", r))
		}
		if s&(regset(1)<<(32+uint(r))) != 0 {
			names = append(names, fmt.Sprintf("f%d", r))
		}
	}
	return strings.Join(names, ",")
}

// --- static bounds over the abstract-interpretation states ---

// boundsGuard is the window past either end of the data segment inside
// which an out-of-segment address interval is treated as an off-by-N
// bug rather than a deliberate reference to another memory region
// (stack, I/O).
const boundsGuard = 4096

// checkStaticBounds checks every reachable memory access against the
// declared data segment using the proved address intervals: an access
// is proved when its whole interval (plus size) fits inside the
// segment, and is a violation when it is not proved and the interval
// is confined to the segment ± the guard window — a near miss. Wide
// or far intervals (stack traffic, pointer arithmetic the domain
// cannot pin down) are recorded as facts but not flagged.
func checkStaticBounds(p *isa.Program, abs *absResult, r *Report) {
	if p.Data.Len() == 0 {
		return
	}
	lo, hi := int64(p.DataBase), int64(p.DataBase)+int64(p.Data.Len())
	for pc := 0; pc < len(p.Insts); pc++ {
		if !abs.in[pc].live || !r.Reachable[pc] {
			continue
		}
		in := p.Insts[pc]
		if !isa.IsMem(in.Op) {
			continue
		}
		st := abs.in[pc]
		check := func(addr AbsVal, what string) {
			if addr.IsBot() {
				return
			}
			fact := MemFact{PC: pc, What: what, Addr: addr, Size: in.Size, Align: addr.Align()}
			switch {
			case addr.Lo >= lo && addr.Hi+int64(in.Size) <= hi:
				fact.Proved = true
			case addr.Lo >= lo-boundsGuard && addr.Hi < hi+boundsGuard:
				// The whole interval is near the segment yet not inside it:
				// a provable out-of-bounds access or straddle.
				fact.Violation = true
				if v, ok := addr.IsConst(); ok {
					r.addf(SevError, RuleBounds, pc,
						"%s: %s address %#x (+%d bytes) is outside the data segment [%#x,%#x)",
						in, what, v, in.Size, lo, hi)
				} else {
					r.addf(SevError, RuleBounds, pc,
						"%s: %s address range %s (+%d bytes) cannot be proven inside the data segment [%#x,%#x)",
						in, what, addr, in.Size, lo, hi)
				}
			}
			r.MemFacts = append(r.MemFacts, fact)
		}
		switch in.Op {
		case isa.OpLD, isa.OpST, isa.OpFLD, isa.OpFST:
			check(avAdd(st.getX(in.Rs1), ConstVal(uint64(in.Imm))), "effective")
		case isa.OpGLD, isa.OpSST:
			check(avAdd(st.getX(in.Rs1), ConstVal(uint64(in.Imm))), "first")
			check(st.getX(in.Rs2), "second")
		case isa.OpSWP:
			check(st.getX(in.Rs1), "effective")
		}
	}
}

// censusNonRepeat records every reachable non-repeatable instruction —
// each obligates a load-store-log slot for replay on a checker.
func censusNonRepeat(p *isa.Program, r *Report) {
	for pc, in := range p.Insts {
		if r.Reachable[pc] && isa.ClassOf(in.Op) == isa.ClassNonRepeat {
			r.NonRepeat = append(r.NonRepeat, pc)
		}
	}
	if len(r.NonRepeat) > 0 {
		r.addf(SevInfo, RuleNonRepeat, r.NonRepeat[0],
			"%d non-repeatable instruction(s) (RAND/CYCLE) require log-replay slots", len(r.NonRepeat))
	}
}

// checkDeadCode reports instructions no entry point reaches (a warning)
// and instructions the value analysis proves unreachable even though CFG
// edges lead there — the dead arm of a statically decided branch
// (informational: generators deliberately emit always-taken guards).
func checkDeadCode(p *isa.Program, abs *absResult, r *Report) {
	dead, first := 0, -1
	semDead, semFirst := 0, -1
	for pc := range p.Insts {
		if !r.Reachable[pc] {
			if first < 0 {
				first = pc
			}
			dead++
		} else if !abs.in[pc].live {
			if semFirst < 0 {
				semFirst = pc
			}
			semDead++
		}
	}
	if dead > 0 {
		r.addf(SevWarn, RuleDeadCode, first,
			"%d instruction(s) unreachable from any entry point, first at pc %d (%s)",
			dead, first, p.Insts[first])
	}
	if semDead > 0 {
		r.addf(SevInfo, RuleDeadCode, semFirst,
			"%d instruction(s) on statically decided branch arms can never execute, first at pc %d (%s)",
			semDead, semFirst, p.Insts[semFirst])
	}
}
