package core

import (
	"paraverser/internal/maintenance"
	"paraverser/internal/obs"
)

// Sample caps keep diagnostic samples bounded regardless of run length.
const (
	sampleMismatchCap = 8
	sampleRecoveryCap = 16
)

// LaneResult reports one main core's run.
type LaneResult struct {
	Name string
	Hart int
	// CoreName and FreqGHz identify the lane's main-core model (lanes
	// can be heterogeneous via Config.LaneMains).
	CoreName string
	FreqGHz  float64

	Insts    uint64
	TimeNS   float64
	Segments int

	CheckedInsts   uint64
	UncheckedInsts uint64
	StallNS        float64
	CheckpointNS   float64

	// LogBytes is the LSL payload generated; LogLines the NoC messages.
	LogBytes uint64
	LogLines uint64

	// Detections counts segments whose check raised an error;
	// FirstDetectionInst is the main-core instruction count at the first
	// detection (-1 when none) — the detection-latency metric of fig. 8.
	Detections         int
	FirstDetectionInst int64
	// SampleMismatches holds a few mismatches for diagnosis.
	SampleMismatches []Mismatch

	// Recovery aggregates the error-recovery pipeline's activity;
	// SampleRecoveries holds the first few recovery events for
	// diagnosis.
	Recovery         RecoveryStats
	SampleRecoveries []RecoveryEvent

	// DegradedSegments/Insts/NS account the graceful-degradation
	// windows: segments a full-coverage lane ran unchecked because
	// quarantine had emptied its active checker pool. Coverage recovers
	// when probation readmits checkers.
	DegradedSegments int
	DegradedInsts    uint64
	DegradedNS       float64

	// MainBusyNS approximates the main core's busy (non-stalled) time
	// for energy accounting.
	MainBusyNS float64
}

// Coverage returns the run-time instruction coverage: the fraction of
// executed main-core instructions that were checked (section VII-B).
func (r *LaneResult) Coverage() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.CheckedInsts) / float64(r.Insts)
}

// DegradedRatio returns the fraction of executed instructions that ran
// in graceful-degradation windows (an emptied or fully-quarantined
// checker pool). Guarded like Coverage: a lane that executed nothing —
// an empty workload, or a warmup window consuming the entire run —
// reports 0 rather than NaN.
func (r *LaneResult) DegradedRatio() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.DegradedInsts) / float64(r.Insts)
}

// DegradedTimeShare returns degraded wall-clock time over lane
// wall-clock time, guarded against zero-duration lanes.
func (r *LaneResult) DegradedTimeShare() float64 {
	if r.TimeNS <= 0 {
		return 0
	}
	return r.DegradedNS / r.TimeNS
}

// CheckerResult reports one checker core's activity.
type CheckerResult struct {
	ID       int
	CoreName string
	FreqGHz  float64
	BusyNS   float64
	Insts    uint64
	Segments int

	// State is the checker's pool standing at run end; Offenses how many
	// times it was quarantined.
	State    CheckerState
	Offenses int
}

// Result is the outcome of one system run.
type Result struct {
	Lanes []LaneResult
	// CheckersByLane[l] lists the checker cores serving lane l.
	CheckersByLane [][]CheckerResult

	// MaxLinkUtilisation is the peak NoC link load observed.
	MaxLinkUtilisation float64
	// AvgLLCExtraNS is the mean queueing delay added to LLC accesses by
	// mesh contention (what the paper back-propagates).
	AvgLLCExtraNS float64

	// Maintenance is the live fleet tracker the recovery pipeline fed
	// during the run (nil when recovery is disabled). Judge it with any
	// maintenance.Policy to get retirement recommendations.
	Maintenance *maintenance.Tracker

	// Metrics is the run's observability shard: raw event counters over
	// the whole run including warmup (unlike the Lane/Checker statistics
	// above, which subtract the warmup window). Deterministic per
	// configuration; shards from different runs merge commutatively
	// (obs.RunMetrics.Merge).
	Metrics *obs.RunMetrics
}

// Recovery aggregates the recovery pipeline's activity over lanes.
func (r *Result) Recovery() RecoveryStats {
	var st RecoveryStats
	for i := range r.Lanes {
		st.Add(r.Lanes[i].Recovery)
	}
	return st
}

// DegradedNS sums the graceful-degradation windows over lanes.
func (r *Result) DegradedNS() float64 {
	var ns float64
	for i := range r.Lanes {
		ns += r.Lanes[i].DegradedNS
	}
	return ns
}

// TimeNS returns the longest lane time (the run's wall clock).
func (r *Result) TimeNS() float64 {
	var max float64
	for i := range r.Lanes {
		if r.Lanes[i].TimeNS > max {
			max = r.Lanes[i].TimeNS
		}
	}
	return max
}

// TotalInsts sums instructions over lanes.
func (r *Result) TotalInsts() uint64 {
	var n uint64
	for i := range r.Lanes {
		n += r.Lanes[i].Insts
	}
	return n
}

// TotalCPI returns aggregate cycles-per-instruction-style metric used for
// the multi-process slowdown of fig. 10: total core-time divided by total
// instructions.
func (r *Result) TotalCPI(freqGHz float64) float64 {
	var t float64
	for i := range r.Lanes {
		t += r.Lanes[i].TimeNS
	}
	if n := r.TotalInsts(); n > 0 {
		return t * freqGHz / float64(n)
	}
	return 0
}

// Detections sums detections over lanes.
func (r *Result) Detections() int {
	var n int
	for i := range r.Lanes {
		n += r.Lanes[i].Detections
	}
	return n
}

// DegradedRatio returns the degraded-instruction fraction aggregated
// over lanes, with the same zero-total guard as Coverage: a run whose
// lanes executed nothing (or an empty lane list, e.g. a fully-degenerate
// campaign trial) reports 0, never NaN.
func (r *Result) DegradedRatio() float64 {
	var deg, total uint64
	for i := range r.Lanes {
		deg += r.Lanes[i].DegradedInsts
		total += r.Lanes[i].Insts
	}
	if total == 0 {
		return 0
	}
	return float64(deg) / float64(total)
}

// Coverage returns instruction coverage aggregated over lanes.
func (r *Result) Coverage() float64 {
	var checked, total uint64
	for i := range r.Lanes {
		checked += r.Lanes[i].CheckedInsts
		total += r.Lanes[i].Insts
	}
	if total == 0 {
		return 0
	}
	return float64(checked) / float64(total)
}
