package core

import (
	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// Diagnosis classifies a detected error by repeat replays (section V:
// "our starting register checkpoints allow repeat replays to identify
// culprits"). ParaVerser cannot directly tell whether the main or checker
// core was faulty, nor whether the fault is hard or soft; replaying the
// failing segment on the same and on other cores separates the cases.
type Diagnosis uint8

// Diagnoses. Enums start at one.
const (
	DiagnosisInvalid Diagnosis = iota
	// CheckerPersistent: every replay on the original checker fails but
	// a reference replay passes — a hard fault in the checker core.
	CheckerPersistent
	// CheckerIntermittent: replays on the original checker disagree —
	// an intermittent (e.g. voltage/temperature-dependent) checker
	// fault.
	CheckerIntermittent
	// MainSuspected: replays on the original checker pass; the logged
	// data itself is inconsistent, so the main core (or the log path)
	// produced the error.
	MainSuspected
	// NotReproduced: the detection does not reproduce at all — a
	// transient (soft) error that left no trace.
	NotReproduced
)

func (d Diagnosis) String() string {
	switch d {
	case CheckerPersistent:
		return "checker-persistent"
	case CheckerIntermittent:
		return "checker-intermittent"
	case MainSuspected:
		return "main-suspected"
	case NotReproduced:
		return "not-reproduced"
	default:
		return "invalid"
	}
}

// ForensicsReport is the outcome of a replay investigation.
type ForensicsReport struct {
	Diagnosis Diagnosis
	// Replays and Failures count the replays on the suspect checker.
	Replays  int
	Failures int
	// ReferenceOK reports whether the fault-free reference replay
	// passed.
	ReferenceOK bool
}

// Investigate replays a failing segment n times under the suspect
// checker's fault environment (intc; nil models a checker later found
// healthy) plus once fault-free, and classifies the culprit. The segment
// must carry its entries and start/end checkpoints, which ParaVerser
// retains exactly for this purpose at 776B per core (section V). Every
// replay runs on cs, the suspect checker's own scratch.
func (cs *CheckScratch) Investigate(prog *isa.Program, seg *Segment, hashMode bool, intc emu.Interceptor, n int) ForensicsReport {
	if n < 1 {
		n = 1
	}
	rep := ForensicsReport{Replays: n}
	for i := 0; i < n; i++ {
		if cs.CheckSegment(prog, seg, hashMode, intc, nil).Detected() {
			rep.Failures++
		}
	}
	rep.ReferenceOK = !cs.CheckSegment(prog, seg, hashMode, nil, nil).Detected()

	switch {
	case rep.Failures == n && rep.ReferenceOK:
		rep.Diagnosis = CheckerPersistent
	case rep.Failures > 0 && rep.Failures < n:
		rep.Diagnosis = CheckerIntermittent
	case rep.Failures == 0 && rep.ReferenceOK:
		rep.Diagnosis = NotReproduced
	default:
		// Even the fault-free replay fails: the log or checkpoints are
		// themselves inconsistent, so the error entered on the main
		// side.
		rep.Diagnosis = MainSuspected
	}
	return rep
}
