//paralint:deterministic
package core

import (
	"fmt"
	"math"

	"paraverser/internal/emu"
)

// Strategy selects the segment-verification strategy: the granularity at
// which checker work is scheduled, the comparison domain, and how checker
// acquisition couples to main-core commit. The zero value (StrategyAuto)
// runs lockstep, so existing configurations keep their meaning.
type Strategy uint8

const (
	// StrategyAuto resolves to lockstep unless a process-wide override
	// (experiments.SetStrategy) applies to the configuration.
	StrategyAuto Strategy = iota
	// StrategyLockstep is the paper's scheme: per-segment dispatch,
	// identical replay, full LSC/RCU comparison. The only strategy
	// eligible for the pipelined dispatch engine (pipeline.go).
	StrategyLockstep
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
	case StrategyAuto:
		return "auto"
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

// ParseStrategy parses a CLI strategy name.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "auto":
		return StrategyAuto, nil
	case "lockstep":
		return StrategyLockstep, nil
	case "divergent":
		return StrategyDivergent, nil
	case "chunk-replay":
		return StrategyChunkReplay, nil
	case "relaxed":
		return StrategyRelaxed, nil
	}
	return StrategyAuto, fmt.Errorf("core: unknown checking strategy %q (want auto, lockstep, divergent, chunk-replay or relaxed)", name)
}

// ResolvedStrategy returns the strategy a run will actually use:
// Config.Strategy, or lockstep when that is StrategyAuto.
func (c *Config) ResolvedStrategy() Strategy {
	if c.Strategy != StrategyAuto {
		return c.Strategy
	}
	return StrategyLockstep
}

// StrategyConfig tunes the chunk-replay and relaxed-start strategies.
// Zero values select the documented defaults, so DefaultConfig needs no
// edits to run any strategy.
type StrategyConfig struct {
	// ChunkInsts is the chunk-replay flush threshold in instructions
	// (0 = defaultChunkSegments checkpoint timeouts' worth).
	ChunkInsts uint64
	// MaxLagSegments bounds how many consecutive segments a relaxed-start
	// lane may dispatch onto a busy pool before falling back to a
	// lockstep-style stall (0 = defaultMaxLagSegments). This bound is
	// what keeps the detection-latency window finite.
	MaxLagSegments int
}

const (
	defaultChunkSegments  = 4
	defaultMaxLagSegments = 4
)

// chunkInsts resolves the effective chunk-replay flush threshold.
func (c *Config) chunkInsts() uint64 {
	if c.StrategyTuning.ChunkInsts > 0 {
		return c.StrategyTuning.ChunkInsts
	}
	return defaultChunkSegments * c.TimeoutInsts
}

// maxLagSegments resolves the effective relaxed-start backlog bound.
func (c *Config) maxLagSegments() int {
	if c.StrategyTuning.MaxLagSegments > 0 {
		return c.StrategyTuning.MaxLagSegments
	}
	return defaultMaxLagSegments
}

// CheckStrategy is the pluggable segment-verification policy behind the
// orchestrator: it decides how checker resources are acquired per
// segment (acquire), what happens to a closed checked segment
// (dispatch), and how deferred work drains at protocol boundaries
// (finish). Implementations are stateless singletons; per-lane strategy
// state lives on the lane (chunk accumulator, relaxed lag counter), so
// one System can drive many lanes through one strategy value.
type CheckStrategy interface {
	// Name is the strategy's CLI/reporting name.
	Name() string
	// pipelineOK reports whether the strategy's dispatch is compatible
	// with the pipelined verification engine (pipeline.go). Only
	// lockstep is: the other strategies either order checks against
	// private lane state (divergent) or defer dispatch past segment
	// close (chunk replay, relaxed start).
	pipelineOK() bool
	// acquire applies the strategy's per-segment resource policy at
	// segment open: it may stall the main core, sets l.segChecked /
	// l.segDegraded, and returns the checker the segment will dispatch
	// to (nil for strategies that defer acquisition) plus the
	// opportunistic resume deadline (+Inf when none).
	acquire(s *System, l *lane, now float64) (*Checker, float64)
	// dispatch handles one closed, checked segment.
	dispatch(s *System, l *lane, ck *Checker, seg *Segment)
	// finish drains any deferred per-lane work (an accumulating chunk)
	// at protocol boundaries: warmup snapshot, an unchecked window
	// opening, lane completion. Must be idempotent.
	finish(s *System, l *lane)
}

// newStrategy maps a resolved Strategy to its implementation.
func newStrategy(st Strategy) CheckStrategy {
	switch st {
	case StrategyDivergent:
		return divergentStrategy{}
	case StrategyChunkReplay:
		return chunkReplayStrategy{}
	case StrategyRelaxed:
		return relaxedStrategy{}
	default:
		return lockstepStrategy{}
	}
}

// segmentAcquire is the historical per-segment resource policy shared by
// the lockstep and divergent strategies — full-coverage stalls, degraded
// windows when quarantine empties the pool, opportunistic skips and
// resume deadlines — byte-identical to the pre-strategy engine.
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
			// Stall until a checker frees (section IV-A).
			stall := e.FreeAtNS - now
			l.main.StallNS(stall)
			l.res.StallNS += stall
			s.metrics.StallNS += uint64(stall + 0.5)
			ck = e
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

// lockstepStrategy is the paper's per-segment identical-replay checking.
type lockstepStrategy struct{}

func (lockstepStrategy) Name() string     { return "lockstep" }
func (lockstepStrategy) pipelineOK() bool { return true }

func (lockstepStrategy) acquire(s *System, l *lane, now float64) (*Checker, float64) {
	return s.segmentAcquire(l, now)
}
func (lockstepStrategy) dispatch(s *System, l *lane, ck *Checker, seg *Segment) {
	s.dispatch(l, ck, seg)
}
func (lockstepStrategy) finish(*System, *lane) {}

// divergentStrategy shares lockstep's per-segment scheduling; the
// decorrelated replay itself is selected inside System.dispatch by the
// lane's divergent state.
type divergentStrategy struct{}

func (divergentStrategy) Name() string     { return "divergent" }
func (divergentStrategy) pipelineOK() bool { return false }

func (divergentStrategy) acquire(s *System, l *lane, now float64) (*Checker, float64) {
	return s.segmentAcquire(l, now)
}
func (divergentStrategy) dispatch(s *System, l *lane, ck *Checker, seg *Segment) {
	s.dispatch(l, ck, seg)
}
func (divergentStrategy) finish(*System, *lane) {}

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

// chunkReplayStrategy is RepTFD-style coarse-grained checking: logging
// is decoupled from checker acquisition. Every segment is logged (no
// per-segment stall); the checker is acquired once per chunk at flush
// time, and the whole chunk verifies as a single replay window through
// the standard dispatch path — so NoC/EagerWake timing, recovery and
// tracing all apply unchanged at the coarser grain.
type chunkReplayStrategy struct{}

func (chunkReplayStrategy) Name() string     { return "chunk-replay" }
func (chunkReplayStrategy) pipelineOK() bool { return false }

//paralint:hotpath
func (chunkReplayStrategy) acquire(s *System, l *lane, now float64) (*Checker, float64) {
	if l.alloc.ActiveCount() == 0 {
		// Quarantine emptied the pool: degrade exactly as the
		// per-segment strategies do. The pending chunk is flushed (and
		// reclassified) before this unchecked window is accounted.
		l.segDegraded = true
		return nil, math.Inf(1)
	}
	l.segChecked = true
	return nil, math.Inf(1)
}

//paralint:hotpath
func (st chunkReplayStrategy) dispatch(s *System, l *lane, ck *Checker, seg *Segment) {
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
	if c.insts >= s.cfg.chunkInsts() || seg.Reason == BoundaryHalt {
		st.flush(s, l)
	}
}

func (st chunkReplayStrategy) finish(s *System, l *lane) { st.flush(s, l) }

// flush verifies the accumulated chunk: acquire a checker at chunk
// granularity — stalling at the chunk boundary if the pool is busy,
// reclassifying the chunk as a degraded window if quarantine emptied it
// after the segments were logged — then route one synthetic segment
// spanning the whole chunk through the standard synchronous dispatch.
func (chunkReplayStrategy) flush(s *System, l *lane) {
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
		stall := e.FreeAtNS - now
		l.main.StallNS(stall)
		l.res.StallNS += stall
		s.metrics.StallNS += uint64(stall + 0.5)
		ck = e
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

// relaxedStrategy is MEEK-style relaxed check start: when the pool is
// busy the segment's check is deferred onto the earliest-free checker's
// queue instead of stalling the main core, up to MaxLagSegments in a
// row; past the bound the lane stalls as lockstep would, which is what
// keeps the detection-latency window finite.
type relaxedStrategy struct{}

func (relaxedStrategy) Name() string     { return "relaxed" }
func (relaxedStrategy) pipelineOK() bool { return false }

//paralint:hotpath
func (relaxedStrategy) acquire(s *System, l *lane, now float64) (*Checker, float64) {
	ck := l.alloc.AcquireFree(now)
	if ck != nil {
		l.relaxLag = 0
		l.segChecked = true
		return ck, math.Inf(1)
	}
	e := l.alloc.EarliestFree()
	if e == nil {
		l.segDegraded = true
		return nil, math.Inf(1)
	}
	if l.relaxLag < s.cfg.maxLagSegments() {
		// Defer: dispatch to the earliest-free checker anyway — the
		// check's start time floors at the checker's FreeAtNS, which is
		// exactly the bounded backlog queueing in simulation terms.
		l.relaxLag++
		l.segChecked = true
		s.metrics.RelaxedDeferred++
		return e, math.Inf(1)
	}
	// Backlog bound reached: stall to the next free checker.
	stall := e.FreeAtNS - now
	l.main.StallNS(stall)
	l.res.StallNS += stall
	s.metrics.StallNS += uint64(stall + 0.5)
	l.relaxLag = 0
	l.segChecked = true
	return e, math.Inf(1)
}

func (relaxedStrategy) dispatch(s *System, l *lane, ck *Checker, seg *Segment) {
	s.dispatch(l, ck, seg)
}
func (relaxedStrategy) finish(*System, *lane) {}
