package core

import (
	"errors"

	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// CheckResult is the outcome of verifying one segment on a checker core.
type CheckResult struct {
	OK         bool
	Mismatches []Mismatch
	Insts      uint64
}

// Detected reports whether any error was raised (the segment failed the
// induction check).
func (r CheckResult) Detected() bool { return !r.OK }

// checkEnv is what the shared check loop needs from a replay environment:
// the emu.Env the checker hart executes against, plus log accounting.
// Lockstep (CheckerEnv) and divergent (DivergentEnv) replay differ only
// in the environment; the verification loop is this one code path.
type checkEnv interface {
	emu.Env
	Consumed() bool
	pos() int
}

// CheckScratch holds the per-checker verification state CheckSegment
// needs — comparator, checkpoint unit, replay environment, hart — so
// steady-state verification allocates nothing: each check resets the
// scratch in place instead of building fresh objects. One scratch must
// not be shared by concurrent checks (each Checker owns one).
type CheckScratch struct {
	lsc  LSC
	rcu  RCU
	env  CheckerEnv
	hart emu.Hart
	// eff is the replay loop's effect buffer. It lives here rather than
	// on runCheck's stack because the interceptor interface and the sink
	// closure defeat escape analysis: a stack local would heap-allocate
	// once per check.
	eff emu.Effect
}

// CheckSegment replays one segment on a checker: re-executes the
// instruction stream from the start register checkpoint with loads served
// from the log, compares every address/size/store-datum (LSC) or digest
// (Hash Mode), runs to exactly the checkpointed instruction count
// (section IV-F), then compares the end register file (RCU). intc, if
// non-nil, injects faults into the checker's own execution (as in the
// paper's section VII-B methodology). sink, if non-nil, receives every
// replayed effect so a checker-core timing model can consume the stream.
//
//paralint:hotpath
func (cs *CheckScratch) CheckSegment(prog *isa.Program, seg *Segment, hashMode bool, intc emu.Interceptor, sink func(*emu.Effect)) CheckResult {
	// Reset in place. Mismatches stays nil until a mismatch actually
	// records (faulty runs only); the digest buffer keeps its capacity.
	cs.lsc.Mismatches = nil
	cs.lsc.Compares = 0
	buf := cs.rcu.hasher.buf[:0]
	cs.rcu = RCU{hashMode: hashMode, hasher: hashState{buf: buf}}
	cs.env = CheckerEnv{logCursor: logCursor{seg: seg}, lsc: &cs.lsc, rcu: &cs.rcu}
	cs.hart = emu.Hart{ID: seg.Hart, State: seg.Start}
	return runCheck(prog, &cs.hart, seg, nil, &cs.env, &cs.lsc, &cs.rcu, intc, sink, &cs.eff)
}

// CheckSegmentBlocks is CheckSegment without an interceptor that hands
// batchSink, when non-nil, each replayed effect as a one-element batch.
//
// Deprecated: CheckSegmentBlocks is kept for the benchmark harness's
// layer probes; no simulation batches effects. Use CheckSegment.
func (cs *CheckScratch) CheckSegmentBlocks(prog *isa.Program, seg *Segment, hashMode bool, batchSink func([]emu.Effect)) CheckResult {
	var sink func(*emu.Effect)
	if batchSink != nil {
		var one [1]emu.Effect
		sink = func(e *emu.Effect) {
			one[0] = *e
			batchSink(one[:])
		}
	}
	return cs.CheckSegment(prog, seg, hashMode, nil, sink)
}

// CheckSegment is the scratch-free convenience form for one-shot
// callers (tools and tests); the simulator's checkers each hold a
// CheckScratch instead.
func CheckSegment(prog *isa.Program, seg *Segment, hashMode bool, intc emu.Interceptor, sink func(*emu.Effect)) CheckResult {
	var cs CheckScratch
	return cs.CheckSegment(prog, seg, hashMode, intc, sink)
}

// CheckSegmentDivergent replays one segment as the decorrelated variant:
// the start checkpoint moves through the register permutation, the
// variant instruction stream executes over the lane's private memory
// image with logged loads cross-checked against it, every comparison
// happens in the canonical domain, and the end register file is compared
// through the permutation with the pointer dual accept. Hash Mode is
// unavailable here — its digest absorbs raw addresses, which are
// layout-dependent by design.
func CheckSegmentDivergent(plan *DivergentPlan, mem *emu.Memory, seg *Segment, intc emu.Interceptor, sink func(*emu.Effect)) CheckResult {
	lsc := &LSC{}
	rcu := NewRCU(false)
	env := NewDivergentEnv(plan, mem, seg, lsc)
	start := plan.PermuteState(&seg.Start)
	hart := &emu.Hart{ID: seg.Hart, State: start}
	var eff emu.Effect
	return runCheck(plan.Variant, hart, seg, plan, env, lsc, rcu, intc, sink, &eff)
}

// runCheck is the single verification loop lockstep and divergent
// replay share: run the hart to the checkpointed instruction count
// over env, then apply
// the induction checks (end register compare — through the plan's
// permutation in divergent mode, bitwise via the RCU otherwise — digest
// or leftover-log check).
//
//paralint:hotpath
func runCheck(prog *isa.Program, hart *emu.Hart, seg *Segment, plan *DivergentPlan, env checkEnv, lsc *LSC, rcu *RCU, intc emu.Interceptor, sink func(*emu.Effect), eff *emu.Effect) CheckResult {
	res := CheckResult{}

	for res.Insts < seg.Insts {
		if hart.Halted {
			lsc.record(Mismatch{Kind: MismatchDivergence, EntryIdx: env.pos()})
			break
		}
		if err := hart.Step(prog, env, intc, eff); err != nil {
			if errors.Is(err, errLogExhausted) {
				lsc.record(Mismatch{Kind: MismatchLogExhausted, EntryIdx: env.pos()})
			} else {
				lsc.record(Mismatch{Kind: MismatchDivergence, EntryIdx: env.pos()})
			}
			break
		}
		res.Insts++
		if sink != nil {
			sink(eff)
		}
	}

	// Induction step: the end register file must equal the start state of
	// the next segment as recorded by the main core.
	if res.Insts == seg.Insts {
		endOK := false
		if plan != nil {
			endOK = plan.EndMatches(&seg.End, &hart.State)
		} else {
			endOK = rcu.Compare(&seg.End, &hart.State)
		}
		if !endOK {
			lsc.record(Mismatch{Kind: MismatchRegFile, EntryIdx: env.pos()})
		}
	}
	if rcu.HashMode() {
		if got := rcu.Digest(); got != seg.Digest {
			lsc.record(Mismatch{Kind: MismatchHash, EntryIdx: env.pos()})
		}
	} else if res.Insts == seg.Insts && !env.Consumed() {
		lsc.record(Mismatch{Kind: MismatchLogUnconsumed, EntryIdx: env.pos()})
	}

	res.Mismatches = lsc.Mismatches
	res.OK = len(res.Mismatches) == 0
	return res
}
