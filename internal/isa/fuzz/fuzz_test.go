package fuzz

import (
	"fmt"
	"testing"

	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
)

// TestGeneratorDeterministic: the same seed must yield an identical
// program — the whole campaign's replayability rests on this.
func TestGeneratorDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
		a := Generate(seed, 200).Program()
		b := Generate(seed, 200).Program()
		if fmt.Sprintf("%v%x", a.Insts, a.Data.Bytes()) != fmt.Sprintf("%v%x", b.Insts, b.Data.Bytes()) {
			t.Fatalf("seed %#x: two generations differ", seed)
		}
	}
}

// TestGeneratedProgramsValidate: every generated candidate must at
// least pass structural validation, whatever the verifier later says.
func TestGeneratedProgramsValidate(t *testing.T) {
	r := rng(7)
	for i := 0; i < 32; i++ {
		seed := r.next()
		p := Generate(seed, 150).Program()
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %#x: generated program fails validation: %v", seed, err)
		}
	}
}

// TestScreenRejectsBrokenProgram: screening must catch a program the
// verifier flags — here an out-of-bounds store at a constant address
// past the data segment.
func TestScreenRejectsBrokenProgram(t *testing.T) {
	p := &isa.Program{
		Name:     "broken",
		DataBase: isa.DefaultDataBase,
		Data:     isa.NewSegment(make([]byte, 8)),
		Entries:  []uint64{0},
		Insts: []isa.Inst{
			{Op: isa.OpLUI, Rd: 10, Imm: int64(isa.DefaultDataBase)},
			{Op: isa.OpST, Rs1: 10, Rs2: isa.Zero, Imm: 64, Size: 8},
			{Op: isa.OpHALT},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("fixture must validate structurally: %v", err)
	}
	if _, err := Screen(p); err == nil {
		t.Fatalf("Screen accepted a program with a provably out-of-bounds store")
	}
}

// TestScreenRejectsUnboundedProgram: no proved termination bound means
// no differential run.
func TestScreenRejectsUnboundedProgram(t *testing.T) {
	p := &isa.Program{
		Name:    "spin",
		Entries: []uint64{0},
		Insts: []isa.Inst{
			{Op: isa.OpJAL, Rd: isa.Zero, Imm: 0}, // jump-to-self
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("fixture must validate structurally: %v", err)
	}
	if _, err := Screen(p); err == nil {
		t.Fatalf("Screen accepted a program with no termination bound")
	}
}

// flattenReports renders a campaign's full observable outcome for
// byte-equality comparison across worker counts.
func flattenReports(reports []SeedReport) string {
	out := ""
	for i, r := range reports {
		out += fmt.Sprintf("%d: seed=%#x insts=%d attempts=%d bound=%d div=%v screen=%q\n",
			i, r.Seed, r.Insts, r.Attempts, r.MaxInsts, r.Divergence, r.ScreenFailure)
	}
	return out
}

// TestCampaignDeterministicAcrossWorkers: the campaign's report list
// must be byte-identical at any worker count — seeds own disjoint
// state and results are stored by index.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	opt := Options{Seeds: 8, Insts: 120, BaseSeed: 99}
	opt.Workers = 1
	seq := Campaign(opt)
	opt.Workers = 4
	par := Campaign(opt)
	if a, b := flattenReports(seq), flattenReports(par); a != b {
		t.Fatalf("campaign diverged across worker counts:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", a, b)
	}
}

// TestPinnedCorpusClean is the CI gate: a fixed corpus of seeds must
// screen and run differentially clean. Any mismatch here is either an
// engine bug or a verifier unsoundness — both ship-blockers.
func TestPinnedCorpusClean(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	reports := Campaign(Options{Seeds: seeds, Insts: 160, Workers: 4, BaseSeed: 0})
	// The base-0 corpus never calls one callee from two sites; this seed
	// does, so it pins the call-multiplicity weighting of the proved
	// instruction bound (a verifier that counts the callee once proves
	// 137 instructions and the run retires 145).
	reports = append(reports, runSeed(0x9eaa7b487a7a4c88, 160))
	s := Summarize(reports)
	if s.Mismatches != 0 || s.ScreenFailures != 0 {
		for _, r := range reports {
			if r.Divergence != nil {
				t.Errorf("seed %#x: %v (minimized: %v insts)", r.Seed, r.Divergence, minLen(r.Minimized))
			}
			if r.ScreenFailure != "" {
				t.Errorf("seed %#x: screening never passed: %s", r.Seed, r.ScreenFailure)
			}
		}
		t.Fatalf("pinned corpus not clean: %+v", s)
	}
	if s.TotalStatic == 0 || s.MaxBound <= 0 {
		t.Fatalf("campaign ran no code: %+v", s)
	}
}

func minLen(p *isa.Program) int {
	if p == nil {
		return -1
	}
	return len(p.Insts)
}

// TestNaNInFPRegisterVerifiesClean pins the regression the fuzzer
// found: a program that parks a NaN in an FP register (via fmv.f.i of
// an arbitrary integer bit pattern) must verify clean in divergent
// mode — the end-state compare is bitwise, not float equality.
func TestNaNInFPRegisterVerifiesClean(t *testing.T) {
	p := &isa.Program{
		Name:    "nan-park",
		Entries: []uint64{0},
		Insts: []isa.Inst{
			{Op: isa.OpADDI, Rd: 10, Rs1: isa.Zero, Imm: -3098}, // 0xFFFF...F3E6: NaN bits
			{Op: isa.OpFMVIF, Rd: 3, Rs1: 10},
			{Op: isa.OpADD, Rd: 11, Rs1: 10, Rs2: 10},
			{Op: isa.OpHALT},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("fixture must validate: %v", err)
	}
	if _, err := Screen(p); err != nil {
		t.Fatalf("fixture must screen clean: %v", err)
	}
	if d := Differential(p, 1); d != nil {
		t.Fatalf("NaN-parking program diverged: %v", d)
	}
}

// TestMinimizeShrinksInjectedDivergence: inject a synthetic divergence
// predicate (any program containing a specific gadget's SWP) — the
// minimizer isn't testable against real engine bugs (there are none),
// so this exercises the ddmin mechanics via the public Emit path
// instead: the minimizer must preserve reproduction while dropping
// gadgets, using the real Screen+Differential pipeline on a template
// known clean, expecting nil (no shrink reproduces a non-existent
// divergence).
func TestMinimizeNoFalseShrink(t *testing.T) {
	tmpl := Generate(3, 150)
	if _, err := Screen(tmpl.Program()); err != nil {
		t.Skipf("seed 3 did not screen: %v", err)
	}
	// The full program runs clean, so no subset can "reproduce" a
	// divergence; Minimize must return nil rather than fabricating one.
	if got := Minimize(tmpl, 3, "strategy:lockstep"); got != nil {
		t.Fatalf("Minimize fabricated a reproduction of a non-existent divergence")
	}
}

// TestEmitSubsetsSelfConsistent: every single-gadget subset of a
// template must emit a structurally valid program — the property the
// minimizer's no-offset-surgery design rests on.
func TestEmitSubsetsSelfConsistent(t *testing.T) {
	tmpl := Generate(11, 200)
	n := tmpl.NumGadgets()
	for i := 0; i < n; i++ {
		mask := make([]bool, n)
		mask[i] = true
		p := tmpl.Emit(mask)
		if err := p.Validate(); err != nil {
			t.Fatalf("single-gadget subset %d fails validation: %v", i, err)
		}
	}
	// And the empty subset: preamble + HALT alone.
	if err := tmpl.Emit(make([]bool, n)).Validate(); err != nil {
		t.Fatalf("empty subset fails validation: %v", err)
	}
}

// TestProofOracleBites: stage 1 must reject a run that breaks either
// proof — a termination bound below the retired count, or an address
// interval that excludes an executed access.
func TestProofOracleBites(t *testing.T) {
	p := Generate(Mix(1), 200).Program()
	rep, err := screen(p)
	if err != nil {
		t.Fatalf("fixture must screen clean: %v", err)
	}
	if d := differential(p, rep, 1); d != nil {
		t.Fatalf("fixture diverged: %v", d)
	}
	if len(rep.MemFacts) == 0 {
		t.Fatal("fixture has no memory facts")
	}

	short := *rep
	short.MaxInsts = 1
	if _, d := checkProofs(p, &short, 1); d == nil || d.Stage != "bound" {
		t.Errorf("bound below the retired count: got %v, want a bound divergence", d)
	}

	wrong := *rep
	wrong.MemFacts = append([]verify.MemFact(nil), rep.MemFacts...)
	for i := range wrong.MemFacts {
		wrong.MemFacts[i].Addr = verify.ConstVal(0)
	}
	if _, d := checkProofs(p, &wrong, 1); d == nil || d.Stage != "memfact" {
		t.Errorf("intervals excluding every access: got %v, want a memfact divergence", d)
	}
}
