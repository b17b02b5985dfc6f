package core

import (
	"fmt"

	"paraverser/internal/cpu"
	"paraverser/internal/noc"
)

// CheckerState is a checker core's standing in the allocation pool. The
// error-recovery layer (recovery.go) moves checkers between states:
// implicated checkers are quarantined, cooled-down checkers shadow-check
// on probation, and persistent offenders are retired for good.
type CheckerState uint8

// Checker states. Enums start at one.
const (
	CheckerStateInvalid CheckerState = iota
	// CheckerActive: in the allocation pool, serving primary checks.
	CheckerActive
	// CheckerQuarantined: removed from the pool after being implicated;
	// re-enters on probation once its cool-down elapses.
	CheckerQuarantined
	// CheckerProbation: shadow-checks segments already verified by a
	// healthy checker; readmitted after enough consecutive clean checks.
	CheckerProbation
	// CheckerRetired: permanently removed after repeated offenses.
	CheckerRetired
)

func (s CheckerState) String() string {
	switch s {
	case CheckerActive:
		return "active"
	case CheckerQuarantined:
		return "quarantined"
	case CheckerProbation:
		return "probation"
	case CheckerRetired:
		return "retired"
	default:
		return "invalid"
	}
}

// Checker is one core currently serving checker duty for a main core: its
// persistent timing model (caches and predictor state carry across
// segments), its DVFS point, its mesh position, and its availability.
type Checker struct {
	ID      int
	Core    *cpu.Core
	FreqGHz float64
	Pos     noc.Coord

	// FreeAtNS is when the checker finishes its current segment.
	FreeAtNS float64
	// BusyNS, Insts and Segments accumulate for energy accounting.
	BusyNS   float64
	Insts    uint64
	Segments int

	// State is the checker's standing in the pool. NewAllocator admits
	// every checker as active.
	State CheckerState
	// ReentryNS is when a quarantined checker may begin probation.
	ReentryNS float64
	// Offenses counts quarantines; the cool-down doubles per offense
	// (the exponential-backoff re-test schedule).
	Offenses int
	// ProbationClean counts consecutive clean shadow checks since the
	// checker entered probation.
	ProbationClean int

	// sizeRank orders allocation preference: smaller, lower-frequency
	// cores first (section IV-A: "Preference for allocation as checker
	// cores is given to idle cores, and lower-performance cores if
	// available").
	sizeRank float64

	// Deferred-join state (pipeline.go). bb buffers the beyond-L2
	// fetches of the checker's latest check; pending marks them not yet
	// merged into the shared LLC, and pendingSeq is that check's segment
	// number, the order forceAll merges in. floorNS lower-bounds the
	// check's FreeAtNS, letting AcquireFree skip a certainly-busy
	// checker without joining it.
	bb         checkerBuffer
	pending    bool
	pendingSeq int
	floorNS    float64

	// scratch is the checker's reusable verification state, shared by
	// its segment checks, recovery re-replays and forensic rounds, which
	// never overlap: steady-state verification allocates nothing.
	scratch CheckScratch
}

// QuarantinePolicy governs how implicated checkers leave and re-enter
// the pool.
type QuarantinePolicy struct {
	// CooldownNS is the base quarantine duration; it doubles with each
	// offense (exponential-backoff re-testing).
	CooldownNS float64
	// ProbationChecks is how many consecutive clean shadow checks a
	// probation checker needs before readmission.
	ProbationChecks int
	// MaxOffenses retires a checker permanently once exceeded.
	MaxOffenses int
}

// Allocator manages one main core's checker pool.
type Allocator struct {
	checkers []*Checker
	// rotate is the rotating-partner cursor for re-replay selection.
	rotate int
	// join, when non-nil, merges a checker's buffered beyond-L2 fetches
	// into the shared LLC (pipeline.go). Pool queries call it lazily,
	// which makes AcquireFree and EarliestFree the protocol-defined join
	// points of the deferred-join protocol.
	join func(*Checker)
	// probations counts quarantine→probation promotions for the run's
	// metrics shard.
	probations uint64
}

// Probations returns how many quarantined checkers were promoted to
// probation over the run.
func (a *Allocator) Probations() uint64 { return a.probations }

// SetJoin installs the deferred-join protocol's join hook.
func (a *Allocator) SetJoin(fn func(*Checker)) { a.join = fn }

// NewAllocator builds a pool.
func NewAllocator(checkers []*Checker) (*Allocator, error) {
	if len(checkers) == 0 {
		return nil, fmt.Errorf("core: allocator needs at least one checker")
	}
	for _, c := range checkers {
		cfg := c.Core.Config()
		c.sizeRank = float64(float64(cfg.IssueWidth) * c.FreqGHz)
		if cfg.OoO {
			c.sizeRank *= 2
		}
		c.State = CheckerActive
	}
	return &Allocator{checkers: checkers}, nil
}

// refresh promotes quarantined checkers whose cool-down elapsed to
// probation. Called from every pool query so re-entry happens at the
// scheduled time without a separate event queue.
func (a *Allocator) refresh(nowNS float64) {
	for _, c := range a.checkers {
		if c.State == CheckerQuarantined && nowNS >= c.ReentryNS {
			c.State = CheckerProbation
			c.ProbationClean = 0
			a.probations++
		}
	}
}

// AcquireFree returns an idle active checker at nowNS, preferring
// lower-performance cores, or nil when every active checker is busy.
func (a *Allocator) AcquireFree(nowNS float64) *Checker {
	a.refresh(nowNS)
	var best *Checker
	for _, c := range a.checkers {
		if c.State != CheckerActive {
			continue
		}
		if c.pending {
			// The checker's last check has not merged its fetches.
			// floorNS lower-bounds its FreeAtNS: past nowNS the checker
			// is certainly busy and the selection below skips it, so the
			// merge may wait; otherwise it might be chosen, and its
			// fetches merge first.
			if c.floorNS > nowNS {
				continue
			}
			a.join(c)
		}
		if c.FreeAtNS > nowNS {
			continue
		}
		if best == nil || c.sizeRank < best.sizeRank ||
			(c.sizeRank == best.sizeRank && c.FreeAtNS < best.FreeAtNS) {
			best = c
		}
	}
	return best
}

// EarliestFree returns the active checker that frees up first (used by
// full-coverage mode to decide how long the main core must stall), or
// nil when quarantine has emptied the active pool — the caller must then
// degrade rather than stall forever.
func (a *Allocator) EarliestFree() *Checker {
	var best *Checker
	for _, c := range a.checkers {
		if c.State != CheckerActive {
			continue
		}
		if c.pending {
			a.join(c)
		}
		if best == nil || c.FreeAtNS < best.FreeAtNS {
			best = c
		}
	}
	return best
}

// NextPartner returns the next active checker other than exclude under
// rotating selection, or nil when no such checker exists. The partner
// may still be busy; the replay simply waits for it.
func (a *Allocator) NextPartner(exclude *Checker, nowNS float64) *Checker {
	a.refresh(nowNS)
	n := len(a.checkers)
	for i := 0; i < n; i++ {
		c := a.checkers[(a.rotate+i)%n]
		if c == exclude || c.State != CheckerActive {
			continue
		}
		a.rotate = (a.rotate + i + 1) % n
		return c
	}
	return nil
}

// ProbationFree returns an idle probation checker at nowNS, or nil.
func (a *Allocator) ProbationFree(nowNS float64) *Checker {
	a.refresh(nowNS)
	for _, c := range a.checkers {
		if c.State == CheckerProbation && c.FreeAtNS <= nowNS {
			return c
		}
	}
	return nil
}

// Quarantine removes c from the pool. The cool-down doubles per offense;
// past pol.MaxOffenses the checker is retired permanently. Reports
// whether the checker was retired.
func (a *Allocator) Quarantine(c *Checker, nowNS float64, pol QuarantinePolicy) bool {
	c.Offenses++
	c.ProbationClean = 0
	if pol.MaxOffenses > 0 && c.Offenses > pol.MaxOffenses {
		c.State = CheckerRetired
		return true
	}
	backoff := c.Offenses - 1
	if backoff > 20 {
		backoff = 20 // cap the shift; beyond this the cool-down is effectively forever
	}
	c.State = CheckerQuarantined
	c.ReentryNS = nowNS + float64(pol.CooldownNS*float64(uint64(1)<<backoff))
	return false
}

// NoteProbation records one shadow-check outcome for a probation
// checker: enough consecutive clean checks readmit it; a failure sends
// it back to quarantine with a doubled cool-down (or retires it).
func (a *Allocator) NoteProbation(c *Checker, clean bool, nowNS float64, pol QuarantinePolicy) (readmitted, retired bool) {
	if !clean {
		return false, a.Quarantine(c, nowNS, pol)
	}
	c.ProbationClean++
	if c.ProbationClean >= pol.ProbationChecks {
		c.State = CheckerActive
		return true, false
	}
	return false, false
}

// ActiveCount returns how many checkers are in the active pool.
func (a *Allocator) ActiveCount() int {
	n := 0
	for _, c := range a.checkers {
		if c.State == CheckerActive {
			n++
		}
	}
	return n
}

// Impaired reports whether any checker is out of the active pool — the
// signal to retain probation material and attempt re-tests.
func (a *Allocator) Impaired() bool {
	for _, c := range a.checkers {
		if c.State != CheckerActive {
			return true
		}
	}
	return false
}

// Checkers exposes the pool for result collection.
func (a *Allocator) Checkers() []*Checker { return a.checkers }
