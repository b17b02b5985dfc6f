package obs

import "sync/atomic"

// SpecStats are the live counters of the SpecCache's functional-stream
// memoisation: how many streams were recorded and replayed, how many
// recorded segments replay lanes entered, and how often a replay had to
// abort back to a run without the cache. The counters are
// process-visible diagnostics — their values depend on cache state and
// scheduling, so they deliberately live outside the deterministic
// RunMetrics/Result export.
type SpecStats struct {
	// StreamsRecorded counts functional streams recorded to completion
	// and published for reuse.
	StreamsRecorded atomic.Uint64
	// StreamsReplayed counts lane runs served end-to-end from a
	// recorded stream instead of live emulation.
	StreamsReplayed atomic.Uint64
	// SegmentsReplayed counts recorded segments entered by replay lanes.
	SegmentsReplayed atomic.Uint64
	// SpecAborts counts divergence events: a replayed segment whose
	// entry state did not extend the committed predecessor, forcing a
	// rerun without the cache.
	SpecAborts atomic.Uint64
	// MicroRecorded / MicroReplayed count main-core micro-architectural
	// traces (cache hit levels + branch verdicts) recorded and reused.
	MicroRecorded atomic.Uint64
	MicroReplayed atomic.Uint64
}

// SpecSnapshot is a point-in-time copy of SpecStats.
type SpecSnapshot struct {
	StreamsRecorded  uint64
	StreamsReplayed  uint64
	SegmentsReplayed uint64
	SpecAborts       uint64
	MicroRecorded    uint64
	MicroReplayed    uint64
}

// Snapshot copies the current counter values.
func (s *SpecStats) Snapshot() SpecSnapshot {
	return SpecSnapshot{
		StreamsRecorded:  s.StreamsRecorded.Load(),
		StreamsReplayed:  s.StreamsReplayed.Load(),
		SegmentsReplayed: s.SegmentsReplayed.Load(),
		SpecAborts:       s.SpecAborts.Load(),
		MicroRecorded:    s.MicroRecorded.Load(),
		MicroReplayed:    s.MicroReplayed.Load(),
	}
}
