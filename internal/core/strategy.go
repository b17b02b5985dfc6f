//paralint:deterministic
package core

import (
	"math"

	"paraverser/internal/emu"
)

// Strategy selects the segment-verification strategy: the granularity at
// which checker work is scheduled, the comparison domain, and how checker
// acquisition couples to main-core commit. The zero value is lockstep,
// the paper's scheme; the others exist for the strategies and divergent
// studies, which set them per configuration.
type Strategy uint8

const (
	// StrategyLockstep is the paper's scheme: per-segment dispatch,
	// identical replay, full LSC/RCU comparison. The only strategy
	// whose checks may defer their joins (pipeline.go).
	StrategyLockstep Strategy = iota
	// StrategyDivergent is DME-style multi-version checking: per-segment
	// dispatch, but the checker replays a structurally decorrelated
	// program variant (shifted data segment, permuted register
	// allocation) and compares both lanes in a canonical,
	// layout-independent domain (DESIGN.md §11), so layout-correlated
	// faults (stuck address bits, DRAM row faults) no longer corrupt main
	// and checker identically. Requires full-coverage mode, no Hash Mode,
	// and single-hart workloads (the checker keeps a private memory
	// image, which cross-hart communication would invalidate).
	StrategyDivergent
	// StrategyChunkReplay is RepTFD-style coarse-grained checking:
	// segments are logged unconditionally and accumulated into a large
	// replay chunk; one checker verifies the whole chunk as a single
	// replay window through the existing RCU/LSC machinery. The main
	// core never stalls at segment boundaries (only at chunk
	// boundaries), at the price of chunk-granularity detection latency.
	StrategyChunkReplay
	// StrategyRelaxed is MEEK-style relaxed check start: checking is
	// decoupled from main-core commit — a busy pool defers the check
	// onto the earliest-free checker's queue instead of stalling — but
	// the backlog is bounded (MaxLagSegments), which bounds the
	// detection-latency window.
	StrategyRelaxed
)

func (s Strategy) String() string {
	switch s {
	case StrategyLockstep:
		return "lockstep"
	case StrategyDivergent:
		return "divergent"
	case StrategyChunkReplay:
		return "chunk-replay"
	case StrategyRelaxed:
		return "relaxed"
	default:
		return "invalid"
	}
}

const (
	// defaultChunkSegments sizes a replay chunk: chunk replay flushes
	// once a chunk holds this many checkpoint timeouts' worth of
	// instructions.
	defaultChunkSegments = 4
	// defaultMaxLagSegments bounds how many consecutive segments a
	// relaxed-start lane may dispatch onto a busy pool before falling
	// back to a lockstep-style stall. This bound is what keeps the
	// detection-latency window finite.
	defaultMaxLagSegments = 4
)

// acquire applies the run's per-segment resource policy at segment
// open: it may stall the main core, sets l.segChecked / l.segDegraded,
// and returns the checker the segment will dispatch to (nil when chunk
// replay defers acquisition to the flush) plus the opportunistic
// resume deadline (+Inf when none).
//
//paralint:hotpath
func (s *System) acquire(l *lane, now float64) (*Checker, float64) {
	switch s.cfg.Strategy {
	case StrategyChunkReplay:
		s.chunkAcquire(l)
		return nil, math.Inf(1)
	case StrategyRelaxed:
		return s.relaxedAcquire(l, now), math.Inf(1)
	default:
		return s.segmentAcquire(l, now)
	}
}

// stallFor stalls lane l's main core from now until checker e frees
// (section IV-A) and returns e.
func (s *System) stallFor(l *lane, e *Checker, now float64) *Checker {
	stall := e.FreeAtNS - now
	l.main.StallNS(stall)
	l.res.StallNS += stall
	s.metrics.StallNS += uint64(stall + 0.5)
	return e
}

// segmentAcquire is the paper's per-segment resource policy, shared by
// the lockstep and divergent strategies — full-coverage stalls,
// degraded windows when quarantine empties the pool, opportunistic
// skips and resume deadlines.
//
//paralint:hotpath
func (s *System) segmentAcquire(l *lane, now float64) (*Checker, float64) {
	var ck *Checker
	resumeAtNS := math.Inf(1)
	switch s.cfg.Mode {
	case ModeFullCoverage:
		ck = l.alloc.AcquireFree(now)
		if ck == nil {
			e := l.alloc.EarliestFree()
			if e == nil {
				// Quarantine emptied the active pool: degrade this
				// lane to opportunistic operation instead of
				// stalling forever; coverage resumes when probation
				// readmits a checker.
				l.segDegraded = true
				break
			}
			ck = s.stallFor(l, e, now)
		}
		l.segChecked = true
	case ModeOpportunistic:
		if s.cfg.SamplePeriod > 1 && l.res.Segments%s.cfg.SamplePeriod != 0 {
			// Time-based sampling (footnote 18): deliberately skip
			// this segment; re-evaluate at the next boundary.
			break
		}
		ck = l.alloc.AcquireFree(now)
		if ck != nil {
			l.segChecked = true
		} else if e := l.alloc.EarliestFree(); e != nil {
			// Run unchecked until a checker frees, then immediately
			// take a new checkpoint (section IV-A).
			resumeAtNS = e.FreeAtNS
		}
	}
	return ck, resumeAtNS
}

// chunkState accumulates a lane's checked segments into one RepTFD-style
// replay chunk. entries and ops are the chunk's private arenas: the
// source entries' Ops alias the lane's log arena, which the next
// beginSegment truncates, so accumulation copies (the retainProbationSeg
// discipline); both arenas keep their capacity across chunks.
type chunkState struct {
	segs     int
	firstSeq int
	start    emu.ArchState
	end      emu.ArchState
	startNS  float64
	endNS    float64
	insts    uint64
	logBytes int
	logLines int
	reason   BoundaryReason
	entries  []Entry
	ops      []MemRec
}

func (c *chunkState) reset() {
	c.segs = 0
	c.insts = 0
	c.logBytes = 0
	c.logLines = 0
	c.entries = c.entries[:0]
	c.ops = c.ops[:0]
}

// chunkAcquire is chunk replay's segment-open policy (RepTFD-style
// coarse-grained checking): logging is decoupled from checker
// acquisition, so every segment is logged without a per-segment stall;
// flushChunk acquires the checker once per chunk, and the whole chunk
// verifies as a single replay window through dispatch — so NoC and
// EagerWake timing, recovery and tracing all apply unchanged at the
// coarser grain.
//
//paralint:hotpath
func (s *System) chunkAcquire(l *lane) {
	if l.alloc.ActiveCount() == 0 {
		// Quarantine emptied the pool: degrade exactly as the
		// per-segment strategies do. The pending chunk is flushed (and
		// reclassified) before this unchecked window is accounted.
		l.segDegraded = true
		return
	}
	l.segChecked = true
}

// chunkAppend adds a closed, checked segment to the lane's replay chunk
// and flushes the chunk once it is full or the lane halts.
//
//paralint:hotpath
func (s *System) chunkAppend(l *lane, seg *Segment) {
	c := l.chunk
	if c.segs == 0 {
		c.firstSeq = seg.Seq
		c.start = seg.Start
		c.startNS = seg.StartNS
	}
	for i := range seg.Entries {
		o := len(c.ops)
		//paralint:allow(arena append: grows once per run, then reuses capacity across chunks)
		c.ops = append(c.ops, seg.Entries[i].Ops...)
		e := seg.Entries[i]
		e.Ops = c.ops[o:len(c.ops):len(c.ops)]
		//paralint:allow(arena append: grows once per run, then reuses capacity across chunks)
		c.entries = append(c.entries, e)
	}
	c.segs++
	c.end = seg.End
	c.endNS = seg.EndNS
	c.insts += seg.Insts
	c.logBytes += seg.LogBytes
	c.logLines += seg.LogLines
	c.reason = seg.Reason
	s.metrics.ChunkSegments++
	if c.insts >= defaultChunkSegments*s.cfg.TimeoutInsts || seg.Reason == BoundaryHalt {
		s.flushChunk(l)
	}
}

// flushChunk verifies the lane's accumulated replay chunk, if any. It is
// called wherever the contiguous checked stream ends: an unchecked
// window opening, the warmup snapshot and lane completion. It acquires
// a checker at chunk granularity — stalling at the chunk boundary if
// the pool is busy, reclassifying the chunk as a degraded window if
// quarantine emptied it after the segments were logged — then routes
// one synthetic segment spanning the whole chunk through dispatch.
func (s *System) flushChunk(l *lane) {
	c := l.chunk
	if c == nil || c.segs == 0 {
		return
	}
	now := l.main.TimeNS()
	ck := l.alloc.AcquireFree(now)
	if ck == nil {
		e := l.alloc.EarliestFree()
		if e == nil {
			// The segments were logged assuming a checker would take the
			// chunk; none survives, so reverse the per-segment checked
			// accounting into the degraded-window counters.
			l.res.CheckedInsts -= c.insts
			l.res.UncheckedInsts += c.insts
			l.res.DegradedSegments += c.segs
			l.res.DegradedInsts += c.insts
			l.res.DegradedNS += c.endNS - c.startNS
			s.metrics.InstsChecked -= c.insts
			s.metrics.SegmentsChecked -= uint64(c.segs)
			s.metrics.SegmentsUnchecked += uint64(c.segs)
			s.metrics.SegmentsDegraded += uint64(c.segs)
			c.reset()
			return
		}
		ck = s.stallFor(l, e, now)
	}
	seg := &Segment{
		Seq:      c.firstSeq,
		Hart:     l.hart,
		Start:    c.start,
		End:      c.end,
		Entries:  c.entries,
		Insts:    c.insts,
		LogBytes: c.logBytes,
		LogLines: c.logLines,
		Reason:   c.reason,
		StartNS:  c.startNS,
		EndNS:    c.endNS,
	}
	s.metrics.ChunkChecks++
	s.dispatch(l, ck, seg)
	c.reset()
}

// relaxedAcquire is MEEK-style relaxed check start: when the pool is
// busy the segment's check is deferred onto the earliest-free checker's
// queue instead of stalling the main core, up to defaultMaxLagSegments
// in a row; past the bound the lane stalls as lockstep would, which is
// what keeps the detection-latency window finite.
//
//paralint:hotpath
func (s *System) relaxedAcquire(l *lane, now float64) *Checker {
	ck := l.alloc.AcquireFree(now)
	if ck != nil {
		l.relaxLag = 0
		l.segChecked = true
		return ck
	}
	e := l.alloc.EarliestFree()
	if e == nil {
		l.segDegraded = true
		return nil
	}
	l.segChecked = true
	if l.relaxLag < defaultMaxLagSegments {
		// Defer: dispatch to the earliest-free checker anyway — the
		// check's start time floors at the checker's FreeAtNS, which is
		// exactly the bounded backlog queueing in simulation terms.
		l.relaxLag++
		s.metrics.RelaxedDeferred++
		return e
	}
	// Backlog bound reached: stall to the next free checker.
	l.relaxLag = 0
	return s.stallFor(l, e, now)
}
