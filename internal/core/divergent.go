//paralint:deterministic

// Divergent multi-version checking (DME): the checker re-executes each
// segment as a structurally decorrelated program variant — shifted data
// segment, permuted register allocation — and both lanes are compared in
// a canonical, layout-independent domain (value + canonical location
// rather than raw address/register). A layout-correlated hardware fault
// (stuck address bit, DRAM row fault) corrupts the two layouts
// differently, so the comparison catches fault classes that
// identical-replay lockstep checking structurally cannot.
package core

import (
	"fmt"
	"math"

	"paraverser/internal/asm"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
)

// DivergentPlan is everything divergent checking needs for one program:
// the decorrelated variant, the layout map relating it to the original,
// and the canonicalisation helpers built from that map.
type DivergentPlan struct {
	Orig    *isa.Program
	Variant *isa.Program
	Map     verify.VariantMap

	dataLo, dataHi uint64 // original-layout data window
	shift          uint64
}

// NewDivergentPlan decorrelates prog with the default options and
// proves the variant equivalent (verify.EquivalentVariant) before any
// segment is checked against it.
func NewDivergentPlan(prog *isa.Program) (*DivergentPlan, error) {
	v, err := asm.Decorrelate(prog, asm.DecorrelateOptions{})
	if err != nil {
		return nil, err
	}
	if err := verify.EquivalentVariant(prog, v.Prog, &v.Map); err != nil {
		return nil, fmt.Errorf("core: divergent variant of %q fails equivalence: %w", prog.Name, err)
	}
	return &DivergentPlan{
		Orig:    prog,
		Variant: v.Prog,
		Map:     v.Map,
		dataLo:  v.Map.DataLo,
		dataHi:  v.Map.DataHi,
		shift:   v.Map.DataShift,
	}, nil
}

// canonAddr maps a variant-layout address back to the canonical
// (original) layout — the comparison domain. Addresses outside the
// relocated data window (stack, carried-in canonical pointers, and any
// wild address a fault produced) are layout-invariant.
//
//paralint:hotpath
func (p *DivergentPlan) canonAddr(a uint64) uint64 {
	if a >= p.dataLo+p.shift && a < p.dataHi+p.shift {
		return a - p.shift
	}
	return a
}

// windowGraceBytes widens the dual-accept pointer test (dataMatches)
// around the data window: pointer arithmetic may step a genuine data
// pointer slightly past the window edge mid-computation (a streaming
// base advanced before re-wrapping), and such a value still compares as
// canonical+shift.
const windowGraceBytes = 0x40000

// nearWindow reports whether a canonical value lies in (or within the
// grace margin of) the data window — i.e. whether it plausibly denotes
// a data address the variant would carry rebased.
func (p *DivergentPlan) nearWindow(v uint64) bool {
	lo := p.dataLo
	if lo >= windowGraceBytes {
		lo -= windowGraceBytes
	} else {
		lo = 0
	}
	return v >= lo && v < p.dataHi+windowGraceBytes
}

// dataMatches reports whether a variant-lane datum matches a logged
// canonical datum: bit-identical (the common case — data values are
// layout-invariant, and loads replay the logged values raw), or offset
// by exactly the layout shift when the canonical value points into the
// data window — how a pointer the variant materialised through a
// rebased LUI compares. Translating full-width values unconditionally
// would false-positive on every non-pointer datum that coincidentally
// lands in a window (workload values are nowhere near uniform over
// 2^64); demanding exact equality would false-positive on every stored
// rebased pointer. The dual accept has neither failure mode; the cost
// is masking a fault whose corruption is exactly the layout shift of an
// in-window value, which the register permutation and the private-image
// cross-check still cover.
//
//paralint:hotpath
func (p *DivergentPlan) dataMatches(got, want uint64, size uint8) bool {
	if got == want {
		return true
	}
	return size == 8 && got-want == p.shift && p.nearWindow(want)
}

// PermuteState maps a main-core register checkpoint into the variant's
// register allocation: each value moves to its permuted slot unchanged.
// Values are NOT layout-shifted: a checkpoint register holding an
// in-window bit pattern is not necessarily a pointer, and shifting a
// non-pointer would corrupt the replay. Carried-in data pointers
// therefore stay canonical — legal, since the canonical window is
// disjoint from the variant's and both address forms canonicalise to
// the same comparison domain — while pointers the variant materialises
// itself (rebased LUIs) land in the relocated window.
func (p *DivergentPlan) PermuteState(st *emu.ArchState) emu.ArchState {
	out := emu.ArchState{PC: st.PC}
	for i, v := range st.X {
		out.X[p.Map.XPerm[i]] = v
	}
	for i, v := range st.F {
		out.F[p.Map.FPerm[i]] = v
	}
	return out
}

// EndMatches compares the variant hart's end state against the main's
// end checkpoint through the register permutation — the RCU induction
// check in the canonical domain. Integer registers use the dual accept
// (a register may legitimately hold the rebased form of a data
// pointer); FP registers never carry addresses and must match bitwise,
// like the lockstep RCU compare — float equality would false-positive
// on NaN (NaN != NaN) the moment a workload parks one in a register
// across a segment boundary.
//
//paralint:hotpath
func (p *DivergentPlan) EndMatches(want, got *emu.ArchState) bool {
	if want.PC != got.PC {
		return false
	}
	for i, v := range want.X {
		if !p.dataMatches(got.X[p.Map.XPerm[i]], v, 8) {
			return false
		}
	}
	for i, v := range want.F {
		if math.Float64bits(got.F[p.Map.FPerm[i]]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// divState is one lane's divergent-checking state: the plan plus the
// variant lane's private memory image, keyed by canonical address. The
// image starts as the program's data segment and is advanced by each
// verified segment's committed stores, giving the checker an independent
// copy of memory to cross-check logged load data against — the
// redundancy lockstep checking lacks.
type divState struct {
	plan *DivergentPlan
	mem  *emu.Memory
	// dirty marks the image stale: a segment ran unchecked (graceful
	// degradation), so its stores never reached the private image. The
	// next dispatch resyncs from the main's memory before checking.
	dirty bool
}

// newDivState starts the private image as an overlay on the program's
// data segment, which copies a page on the first verified store to it.
func newDivState(plan *DivergentPlan) *divState {
	return &divState{plan: plan, mem: emu.NewProgramMemory(plan.Orig)}
}

// DivergentEnv is the emu.Env the divergent checker executes against.
// Loads are contained to the logged stream (the replay continues on the
// main run's raw values) but are additionally cross-checked against the
// private memory image at the canonical location; store addresses and
// data are compared in the canonical domain and the verified data
// committed to the image.
type DivergentEnv struct {
	logCursor
	plan *DivergentPlan
	mem  *emu.Memory
	lsc  *LSC
}

var _ emu.Env = (*DivergentEnv)(nil)

// NewDivergentEnv builds the divergent replay environment for one
// segment over the lane's private memory image.
func NewDivergentEnv(plan *DivergentPlan, mem *emu.Memory, seg *Segment, lsc *LSC) *DivergentEnv {
	return &DivergentEnv{logCursor: logCursor{seg: seg}, plan: plan, mem: mem, lsc: lsc}
}

// Load implements emu.Env: the address is compared in the canonical
// domain, the logged datum is cross-checked against the private image,
// and the logged raw datum is returned for containment.
//
//paralint:hotpath
func (e *DivergentEnv) Load(addr uint64, size uint8) (uint64, error) {
	op, idx, err := e.next()
	if err != nil {
		return 0, err
	}
	canon := e.plan.canonAddr(addr)
	e.lsc.CheckLoad(idx, op, canon, size)
	if op.Load {
		got, _ := e.mem.Load(canon, size)
		if got != op.Data {
			e.lsc.record(Mismatch{Kind: MismatchLoadData, EntryIdx: idx, Want: got, Got: op.Data})
		}
	}
	return op.Data, nil
}

// Store implements emu.Env: address and datum are compared in the
// canonical domain (datum via the dual accept — a stored value may be a
// rebased pointer); the logged datum is committed to the private image
// so the image tracks the verified stream.
//
//paralint:hotpath
func (e *DivergentEnv) Store(addr uint64, size uint8, val uint64) error {
	op, idx, err := e.next()
	if err != nil {
		return err
	}
	v := truncTo(val, size)
	if e.plan.dataMatches(v, op.Data, size) {
		// Shift-consistent pointer store: canonicalise so the LSC's exact
		// compare passes; anything else reaches the LSC raw and mismatches.
		v = op.Data
	}
	canon := e.plan.canonAddr(addr)
	e.lsc.CheckStore(idx, op, canon, size, v)
	return e.mem.Store(canon, size, op.Data)
}

// Swap implements emu.Env: the logged entry holds loaded-then-stored
// data; both halves go through the canonical comparison.
func (e *DivergentEnv) Swap(addr uint64, newVal uint64) (uint64, error) {
	old, err := e.Load(addr, 8)
	if err != nil {
		return 0, err
	}
	if err := e.Store(addr, 8, newVal); err != nil {
		return 0, err
	}
	return old, nil
}

// Rand implements emu.Env: non-repeatable values replay raw from the
// log, like every other datum.
func (e *DivergentEnv) Rand() (uint64, error) {
	op, _, err := e.next()
	if err != nil {
		return 0, err
	}
	return op.Data, nil
}

// CycleRead implements emu.Env: same replay path as Rand.
func (e *DivergentEnv) CycleRead(uint64) (uint64, error) {
	op, _, err := e.next()
	if err != nil {
		return 0, err
	}
	return op.Data, nil
}
