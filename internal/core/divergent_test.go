package core

import (
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// divergentConfig is the baseline divergent-mode system the tests run:
// full coverage, a small A510 pool, default decorrelation parameters.
func divergentConfig(n int) Config {
	cfg := DefaultConfig(a510Checkers(n, 2.0))
	cfg.Strategy = StrategyDivergent
	return cfg
}

// TestDivergentCleanRun is the false-positive contract: a fault-free
// divergent run over the pointer-heavy mixed program must detect
// nothing, cover everything, and actually have exercised the divergent
// check path (not silently fallen back to lockstep).
func TestDivergentCleanRun(t *testing.T) {
	res, err := Run(divergentConfig(4), []Workload{{Name: "mixed", Prog: mixedProgram(20000)}})
	if err != nil {
		t.Fatal(err)
	}
	lane := res.Lanes[0]
	if lane.Detections != 0 {
		t.Fatalf("clean divergent run raised %d detections: %v", lane.Detections, lane.SampleMismatches)
	}
	if got := lane.Coverage(); got != 1.0 {
		t.Errorf("full-coverage divergent run covered %.3f, want 1.0", got)
	}
	if res.Metrics.SegmentsCheckedDivergent == 0 {
		t.Error("no segments took the divergent check path")
	}
	if res.Metrics.DivergentDataMismatches != 0 {
		t.Errorf("clean run recorded %d image mismatches", res.Metrics.DivergentDataMismatches)
	}
}

// TestDivergentConfigValidation pins the mode's structural constraints:
// Hash Mode digests absorb raw layout-dependent addresses and multi-hart
// programs defeat the private canonical image, so both must be rejected
// up front rather than misbehave at check time.
func TestDivergentConfigValidation(t *testing.T) {
	cfg := divergentConfig(2)
	cfg.HashMode = true
	if err := cfg.Validate(); err == nil {
		t.Error("divergent + hash mode accepted")
	}

	b := asm.New("twohart")
	b.Entry()
	b.Li(5, 1)
	b.Halt()
	b.Entry()
	b.Li(5, 2)
	b.Halt()
	multi := b.MustBuild()
	if _, err := Run(divergentConfig(2), []Workload{{Name: "multi", Prog: multi}}); err == nil {
		t.Error("divergent run of a multi-hart program accepted")
	}
}

// planFor builds a DivergentPlan for the mixed program with default
// options, for the unit tests below.
func planFor(t *testing.T) *DivergentPlan {
	t.Helper()
	plan, err := NewDivergentPlan(mixedProgram(100))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPlanCanonicalisation unit-tests the canonical comparison helpers:
// address folding, the dual-accept datum compare, and the permuted
// register checkpoint/end-state mapping.
func TestPlanCanonicalisation(t *testing.T) {
	p := planFor(t)
	if p.shift == 0 || p.shift%4096 != 0 {
		t.Fatalf("degenerate data shift %#x", p.shift)
	}

	// Variant-window addresses fold back by the shift; everything else
	// (canonical window, stack, wild addresses) is identity.
	if got := p.canonAddr(p.dataLo + p.shift + 8); got != p.dataLo+8 {
		t.Errorf("canonAddr(variant) = %#x, want %#x", got, p.dataLo+8)
	}
	for _, a := range []uint64{p.dataLo, p.dataHi - 1, isa.StackBase - 64, 0x42} {
		if got := p.canonAddr(a); got != a {
			t.Errorf("canonAddr(%#x) = %#x, want identity", a, got)
		}
	}

	// Dual accept: exact match always; shift-offset match only for
	// 8-byte values whose canonical form lies near the data window.
	inWin := p.dataLo + 0x100
	if !p.dataMatches(77, 77, 4) {
		t.Error("exact match rejected")
	}
	if !p.dataMatches(inWin+p.shift, inWin, 8) {
		t.Error("rebased in-window pointer rejected")
	}
	if p.dataMatches(inWin+p.shift, inWin, 4) {
		t.Error("narrow access accepted as a rebased pointer")
	}
	far := p.dataHi + 2*windowGraceBytes
	if p.dataMatches(far+p.shift, far, 8) {
		t.Error("shift-offset value far outside the window accepted")
	}

	// PermuteState moves values to permuted slots unchanged; EndMatches
	// undoes it, tolerating a rebased pointer in an integer register but
	// not in an FP register.
	var st emu.ArchState
	st.PC = 0x40
	for i := range st.X {
		st.X[i] = uint64(i) * 3
	}
	for i := range st.F {
		st.F[i] = float64(i) * 1.5
	}
	perm := p.PermuteState(&st)
	if !p.EndMatches(&st, &perm) {
		t.Fatal("permuted state does not match its own source")
	}
	ptr := perm
	ptr.X[p.Map.XPerm[9]] = inWin + p.shift
	want := st
	want.X[9] = inWin
	if !p.EndMatches(&want, &ptr) {
		t.Error("rebased pointer in X register rejected by EndMatches")
	}
	bad := perm
	bad.F[p.Map.FPerm[3]] += 1
	if p.EndMatches(&st, &bad) {
		t.Error("corrupted F register accepted by EndMatches")
	}
	off := perm
	off.PC ^= 4
	if p.EndMatches(&st, &off) {
		t.Error("PC divergence accepted by EndMatches")
	}
}

// TestDivergentResyncAfterDegradedWindow drives the private image
// through a resync. Faults quarantine both checkers in turn, the lane
// runs unchecked segments whose stores bypass the image, and once the
// faults heal probation readmits a checker and the image is rebuilt
// from the main's memory. A stale or partial rebuild would contradict
// the logged loads, so every check after the heal must be clean.
func TestDivergentResyncAfterDegradedWindow(t *testing.T) {
	cfg := divergentConfig(2)
	cfg.Recovery = DefaultRecovery()
	cfg.Recovery.Quarantine.CooldownNS = 10_000
	var s *System
	checks, healed := 0, false
	cfg.CheckerInterceptor = func(_, id int) emu.Interceptor {
		checks++
		// Checker 0 fails after a few clean checks; checker 1 once 0
		// is quarantined, after its clean checks gave probation a
		// verified segment to re-test.
		q := s.lanes[0].res.Recovery.Quarantines
		if !healed && (id == 0 && checks > 3 || id == 1 && q > 0 && checks > 12) {
			return &stuckAtInterceptor{bit: 3}
		}
		return nil
	}
	var err error
	s, err = NewSystem(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(60000)}})
	if err != nil {
		t.Fatal(err)
	}
	var atHeal uint64
	for {
		l := s.nextLane()
		if l == nil {
			break
		}
		if err := s.runSegment(l); err != nil {
			t.Fatal(err)
		}
		if !healed && l.res.DegradedSegments > 2 {
			healed = true
			atHeal = s.metrics.DivergentDataMismatches
		}
	}
	res := s.collect()
	lane := res.Lanes[0]
	if lane.DegradedSegments == 0 || lane.Recovery.Readmissions == 0 {
		t.Fatalf("no degraded window and readmission: degraded %d, %+v", lane.DegradedSegments, lane.Recovery)
	}
	if got := res.Metrics.DivergentDataMismatches; got != atHeal {
		t.Errorf("%d image mismatches after the heal, want 0", got-atHeal)
	}
}
