package core

import (
	"testing"

	"paraverser/internal/isa"
)

// flakyInterceptor corrupts results on a duty cycle, modelling an
// intermittent fault.
type flakyInterceptor struct {
	period int
	n      int
}

func (f *flakyInterceptor) Result(_ isa.Inst, class isa.Class, _ bool, v uint64) uint64 {
	if class != isa.ClassIntALU {
		return v
	}
	f.n++
	if f.n%f.period == 0 {
		return v ^ 1<<9
	}
	return v
}

func (f *flakyInterceptor) Address(_ isa.Inst, a uint64) uint64 { return a }

func TestInvestigateCheckerPersistent(t *testing.T) {
	prog := workProgram()
	segs := captureSegments(t, prog, 60, false)
	intc := &stuckBitInterceptor{class: isa.ClassIntALU, bit: 9}
	// Find a segment the fault actually breaks.
	for _, seg := range segs {
		if !CheckSegment(prog, seg, false, intc, nil).Detected() {
			continue
		}
		rep := new(CheckScratch).Investigate(prog, seg, false, intc, 5)
		if rep.Diagnosis != CheckerPersistent {
			t.Fatalf("diagnosis %v, want checker-persistent (%+v)", rep.Diagnosis, rep)
		}
		if rep.Failures != 5 || !rep.ReferenceOK {
			t.Errorf("report %+v", rep)
		}
		return
	}
	t.Fatal("fault never detected in any segment")
}

func TestInvestigateMainSuspected(t *testing.T) {
	prog := workProgram()
	segs := captureSegments(t, prog, 60, false)
	seg := segs[0]
	// Corrupt the log itself: the error came from the main side, so even
	// a fault-free replay fails.
	for i := range seg.Entries {
		if seg.Entries[i].Kind == EntryStore {
			seg.Entries[i].Ops[0].Data ^= 4
			break
		}
	}
	rep := new(CheckScratch).Investigate(prog, seg, false, nil, 3)
	if rep.Diagnosis != MainSuspected {
		t.Fatalf("diagnosis %v, want main-suspected (%+v)", rep.Diagnosis, rep)
	}
}

func TestInvestigateNotReproduced(t *testing.T) {
	prog := workProgram()
	segs := captureSegments(t, prog, 60, false)
	rep := new(CheckScratch).Investigate(prog, segs[0], false, nil, 3)
	if rep.Diagnosis != NotReproduced {
		t.Fatalf("diagnosis %v, want not-reproduced for a clean segment", rep.Diagnosis)
	}
}

func TestInvestigateCheckerIntermittent(t *testing.T) {
	prog := workProgram()
	segs := captureSegments(t, prog, 60, false)
	// A fault firing on a long duty cycle fails only some replays
	// (interceptor state carries across replays, as silicon would).
	intc := &flakyInterceptor{period: 97}
	found := false
	for _, seg := range segs {
		rep := new(CheckScratch).Investigate(prog, seg, false, intc, 7)
		if rep.Diagnosis == CheckerIntermittent {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no segment diagnosed intermittent; duty cycle never straddled replays")
	}
}

func TestDiagnosisStrings(t *testing.T) {
	for d := CheckerPersistent; d <= NotReproduced; d++ {
		if d.String() == "invalid" {
			t.Errorf("diagnosis %d has no name", d)
		}
	}
}

func TestSamplePeriodReducesCheckedFraction(t *testing.T) {
	prog := mixedProgram(30000)
	full := DefaultConfig(x2Checkers(1, 3.0))
	full.Mode = ModeOpportunistic
	sampled := DefaultConfig(x2Checkers(1, 3.0))
	sampled.Mode = ModeOpportunistic
	sampled.SamplePeriod = 4

	rf, err := Run(full, []Workload{{Name: "m", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(sampled, []Workload{{Name: "m", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	cf, cs := rf.Lanes[0].Coverage(), rs.Lanes[0].Coverage()
	if cs >= cf {
		t.Errorf("sampling coverage %.3f not below full opportunistic %.3f", cs, cf)
	}
	if cs < 0.1 || cs > 0.6 {
		t.Errorf("1-in-4 sampling coverage %.3f, want roughly a quarter", cs)
	}
	if rs.Lanes[0].Detections != 0 {
		t.Error("clean sampled run detected errors")
	}
	if rs.Lanes[0].StallNS != 0 {
		t.Error("sampling mode stalled")
	}
}
