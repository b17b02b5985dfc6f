package obs

import (
	"fmt"

	"paraverser/internal/isa"
)

// RunMetrics is one simulation run's metric shard: segment lifecycle,
// checker-pool pressure, recovery-pipeline transitions, and per-class
// functional-unit issue counts. Every field is integer-valued and is
// written only at protocol-defined points of the orchestrator loop
// (segment close, checker dispatch, deferred join, recovery event), so
// a run's metrics are a deterministic function of its configuration
// and shards merge commutatively across any worker-pool schedule.
//
// Counters cover the whole run including warmup: they are raw event
// tallies (matching the segment trace), unlike LaneResult statistics,
// which subtract the warmup window.
type RunMetrics struct {
	// Segment lifecycle.
	Segments           uint64 // checkpoint intervals closed
	SegmentsChecked    uint64 // dispatched to a checker
	SegmentsUnchecked  uint64 // ran without verification (opportunistic skip or degradation)
	SegmentsDegraded   uint64 // unchecked because quarantine emptied the pool
	SegmentsMismatched uint64 // checks that raised a detection
	SegmentsReplayed   uint64 // recovery re-replays on alternate checkers
	ShadowChecks       uint64 // probation shadow checks

	// Divergent-mode checking (decorrelated variant replay).
	SegmentsCheckedDivergent uint64 // checks run against the decorrelated variant
	DivergentDataMismatches  uint64 // logged load data contradicted the private image

	// Strategy activity (chunk-replay and relaxed-start strategies).
	ChunkSegments   uint64 // segments accumulated into replay chunks
	ChunkChecks     uint64 // chunk flushes dispatched to a checker
	RelaxedDeferred uint64 // checks deferred onto a busy pool (relaxed start)

	// Instructions.
	Insts        uint64
	InstsChecked uint64

	// Main-core checking overheads, in integer nanoseconds (rounded
	// per event, so totals merge deterministically).
	StallNS      uint64 // full-coverage stalls waiting for a checker
	CheckpointNS uint64 // register-checkpoint cost

	// Checker-side work, in integer nanoseconds.
	CheckBusyNS uint64 // checker compute time over all checks
	// CheckWindowNS is the per-lane wall clock times the lane's pool
	// size, summed over lanes: the denominator for pool utilization.
	CheckWindowNS uint64

	// Quarantine state machine transitions.
	Quarantines      uint64
	ProbationEntries uint64
	Readmissions     uint64
	Retirements      uint64

	// CheckQueueDepth samples, at each dispatch, how many checks on the
	// lane's pool are not finished when the segment's checkpoint
	// closes, this one included: the checker backlog. CheckLatencyNS is
	// the per-check compute duration.
	CheckQueueDepth Hist
	CheckLatencyNS  Hist

	// Per-class functional-unit issue counts, split by core duty.
	FUIssueMain    [isa.NumClasses]uint64
	FUIssueChecker [isa.NumClasses]uint64
}

// NewRunMetrics returns a shard with its histograms sized.
func NewRunMetrics() *RunMetrics {
	return &RunMetrics{
		CheckQueueDepth: NewHist(0, 1, 2, 4, 8, 16, 32),
		CheckLatencyNS:  NewHist(1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000),
	}
}

// Merge accumulates another shard. Integer-only addition makes the
// merge commutative: aggregate totals do not depend on completion
// order.
func (m *RunMetrics) Merge(o *RunMetrics) {
	if o == nil {
		return
	}
	m.Segments += o.Segments
	m.SegmentsChecked += o.SegmentsChecked
	m.SegmentsUnchecked += o.SegmentsUnchecked
	m.SegmentsDegraded += o.SegmentsDegraded
	m.SegmentsMismatched += o.SegmentsMismatched
	m.SegmentsReplayed += o.SegmentsReplayed
	m.ShadowChecks += o.ShadowChecks
	m.SegmentsCheckedDivergent += o.SegmentsCheckedDivergent
	m.DivergentDataMismatches += o.DivergentDataMismatches
	m.ChunkSegments += o.ChunkSegments
	m.ChunkChecks += o.ChunkChecks
	m.RelaxedDeferred += o.RelaxedDeferred
	m.Insts += o.Insts
	m.InstsChecked += o.InstsChecked
	m.StallNS += o.StallNS
	m.CheckpointNS += o.CheckpointNS
	m.CheckBusyNS += o.CheckBusyNS
	m.CheckWindowNS += o.CheckWindowNS
	m.Quarantines += o.Quarantines
	m.ProbationEntries += o.ProbationEntries
	m.Readmissions += o.Readmissions
	m.Retirements += o.Retirements
	m.CheckQueueDepth.Merge(&o.CheckQueueDepth)
	m.CheckLatencyNS.Merge(&o.CheckLatencyNS)
	for i := range m.FUIssueMain {
		m.FUIssueMain[i] += o.FUIssueMain[i]
		m.FUIssueChecker[i] += o.FUIssueChecker[i]
	}
}

// PoolUtilization returns checker compute time over available checker
// time — the occupancy figure the paper sizes pools by. Derived from
// integer totals, so it is deterministic whenever they are.
func (m *RunMetrics) PoolUtilization() float64 {
	if m.CheckWindowNS == 0 {
		return 0
	}
	return float64(m.CheckBusyNS) / float64(m.CheckWindowNS)
}

// AddTo flattens the shard into snapshot metrics under the given name
// prefix (conventionally "paraverser_").
func (m *RunMetrics) AddTo(b *SnapshotBuilder, prefix string) {
	b.Counter(prefix+"segments_total", "checkpoint intervals closed (including warmup)", m.Segments)
	b.Counter(prefix+"segments_checked_total", "segments dispatched to a checker", m.SegmentsChecked)
	b.Counter(prefix+"segments_unchecked_total", "segments run without verification", m.SegmentsUnchecked)
	b.Counter(prefix+"segments_degraded_total", "unchecked segments due to an emptied checker pool", m.SegmentsDegraded)
	b.Counter(prefix+"segments_mismatched_total", "checks that raised a detection", m.SegmentsMismatched)
	b.Counter(prefix+"segments_replayed_total", "recovery re-replays on alternate checkers", m.SegmentsReplayed)
	b.Counter(prefix+"probation_shadow_checks_total", "probation shadow checks", m.ShadowChecks)
	b.Counter(prefix+"segments_checked_divergent_total", "checks run against the decorrelated variant", m.SegmentsCheckedDivergent)
	b.Counter(prefix+"divergent_data_mismatches_total", "logged load data contradicted the divergent private image", m.DivergentDataMismatches)
	b.Counter(prefix+"chunk_segments_total", "segments accumulated into replay chunks", m.ChunkSegments)
	b.Counter(prefix+"chunk_checks_total", "chunk flushes dispatched to a checker", m.ChunkChecks)
	b.Counter(prefix+"relaxed_deferred_total", "checks deferred onto a busy pool (relaxed start)", m.RelaxedDeferred)
	b.Counter(prefix+"insts_total", "main-core instructions executed", m.Insts)
	b.Counter(prefix+"insts_checked_total", "main-core instructions verified", m.InstsChecked)
	b.Counter(prefix+"main_stall_ns_total", "main-core stall waiting for checkers (ns)", m.StallNS)
	b.Counter(prefix+"checkpoint_ns_total", "register-checkpoint overhead (ns)", m.CheckpointNS)
	b.Counter(prefix+"check_busy_ns_total", "checker compute time (ns)", m.CheckBusyNS)
	b.Counter(prefix+"check_window_ns_total", "checker-pool available time (ns)", m.CheckWindowNS)
	b.Gauge(prefix+"checker_utilization", "check_busy_ns / check_window_ns", m.PoolUtilization())
	b.Counter(prefix+"quarantines_total", "checkers quarantined", m.Quarantines)
	b.Counter(prefix+"probation_entries_total", "quarantined checkers promoted to probation", m.ProbationEntries)
	b.Counter(prefix+"readmissions_total", "probation checkers readmitted", m.Readmissions)
	b.Counter(prefix+"retirements_total", "checkers retired", m.Retirements)
	b.Hist(prefix+"check_queue_depth", "in-flight checks per pool, sampled at dispatch", &m.CheckQueueDepth)
	b.Hist(prefix+"check_latency_ns", "per-check compute duration (ns)", &m.CheckLatencyNS)
	for c := 1; c < isa.NumClasses; c++ {
		class := isa.Class(c)
		if m.FUIssueMain[c] > 0 {
			b.LabeledCounter(prefix+"fu_issue_total",
				fmt.Sprintf(`class=%q,core="main"`, class), "instructions issued per FU class", m.FUIssueMain[c])
		}
		if m.FUIssueChecker[c] > 0 {
			b.LabeledCounter(prefix+"fu_issue_total",
				fmt.Sprintf(`class=%q,core="checker"`, class), "instructions issued per FU class", m.FUIssueChecker[c])
		}
	}
}

// String renders the shard deterministically for invariance tests:
// equality of two renders means equality of every exported metric.
func (m *RunMetrics) String() string {
	if m == nil {
		return "<nil>"
	}
	return fmt.Sprintf("seg=%d/%d/%d deg=%d mm=%d rep=%d shadow=%d div=%d/%d chunk=%d/%d relax=%d insts=%d/%d "+
		"stall=%d ckpt=%d busy=%d window=%d q=%d/%d/%d/%d depth=%s lat=%s fuM=%v fuC=%v",
		m.Segments, m.SegmentsChecked, m.SegmentsUnchecked, m.SegmentsDegraded,
		m.SegmentsMismatched, m.SegmentsReplayed, m.ShadowChecks,
		m.SegmentsCheckedDivergent, m.DivergentDataMismatches,
		m.ChunkSegments, m.ChunkChecks, m.RelaxedDeferred, m.Insts, m.InstsChecked,
		m.StallNS, m.CheckpointNS, m.CheckBusyNS, m.CheckWindowNS,
		m.Quarantines, m.ProbationEntries, m.Readmissions, m.Retirements,
		m.CheckQueueDepth.String(), m.CheckLatencyNS.String(), m.FUIssueMain, m.FUIssueChecker)
}
