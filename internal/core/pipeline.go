package core

// Segment checks: one dispatch, one record per checker, two ways to
// settle.
//
// System.dispatch is the only function that starts a segment check. It
// fills the target checker's reusable pendingCheck record — NoC
// transfer, check start time under EagerWake — and pendingCheck.run
// executes the verification inline, on the run loop's own goroutine:
// LSL$ fill, checker-core timing, the replay itself and the completion
// floor. settle then applies the check's outcome: checker statistics,
// latency and trace samples, and detection accounting. The two check
// modes differ in exactly two places.
//
//   - Where the checker core's beyond-L2 hook points. A synchronous
//     check's instruction fetches read and write the live LLC, DRAM
//     model, mesh flow tracker and contention statistics (beyondFor).
//     Under the deferred-join protocol they go through the record's
//     buffer instead (beyondBuffered): each access is charged the mesh
//     round trip plus the L3 hit latency snapshotted at dispatch under
//     the mesh load current at that protocol point (snapshotBeyond),
//     without consulting the LLC contents for a miss, and the LLC sees
//     the access only at the join.
//   - When the merge happens. A synchronous check settles at once,
//     inside dispatch, and feeds recovery. A deferred-join check settles
//     at joinCheck, which replays the buffered accesses first and then
//     lands the SpecCache verdict and the log arenas.
//
// Joins happen only at protocol-defined points of the run loop:
// allocator pool queries (AcquireFree forces a pending checker only
// when its completion floor says it might already be free;
// EarliestFree forces unconditionally), the warmup snapshot, and final
// collection. The protocol is not a concurrency device: it is the
// checker's memory model. Checker loads and stores never touch the
// memory hierarchy at all (the LSL$ serves them, section IV footnote
// 12), so beyond-L2 traffic is instruction fetch only; the checkers'
// code working set sits comfortably in their private L2, so such
// accesses all but vanish after the first segments. The merge order at
// joins still moves LLC occupancy and NoC load, so the published tables
// depend on the protocol.
//
// Only fault-free lockstep runs defer joins (System.pipelined). Runs
// with Recovery.Enabled or a CheckerInterceptor settle synchronously:
// re-replay, forensics and quarantine decisions consume a check's
// verdict immediately and reshape the pool, and injectors carry per-run
// mutable state. Divergent checking orders checks against the lane's
// private memory image, and chunk replay and relaxed start dispatch
// past segment close, so they settle synchronously too. A synchronous
// run may still replay the main core's stream from the SpecCache
// (spec.go); its checks then run for real, and only deferred-join
// replays synthesise verdicts.

import (
	"math"
	"sort"

	"paraverser/internal/emu"
	"paraverser/internal/noc"
)

// beyondAccess is one buffered checker beyond-L2 access.
type beyondAccess struct {
	addr  uint64
	write bool
}

// checkerBuffer captures a deferred-join check's beyond-L2 side
// effects. The latency tables are snapshotted at dispatch; the access
// list is replayed into the shared LLC, flow tracker and contention
// statistics at the join.
type checkerBuffer struct {
	// latNS[i] is the full beyond-L2 latency (mesh round trip + L3 hit)
	// to LLC slice i under the mesh load at dispatch time; queueNS[i]
	// is the queueing-delay portion, sampled into the contention
	// statistic per access.
	latNS   []float64
	queueNS []float64
	accs    []beyondAccess
}

func (b *checkerBuffer) access(addr uint64, write bool) float64 {
	slice := int((addr / 64) % uint64(len(b.latNS)))
	b.accs = append(b.accs, beyondAccess{addr: addr, write: write})
	return b.latNS[slice]
}

// beyondBuffered is the checker core's beyond-L2 hook under the
// deferred-join protocol: it routes through the checker's own check
// record, whose buffer dispatch snapshots before the check can execute
// a single instruction.
func (c *Checker) beyondBuffered(addr uint64, write, fetch bool) float64 {
	return c.check.bb.access(addr, write)
}

// snapshotBeyond fills bb's per-slice latency tables for a checker at
// pos under the current mesh load. Dispatch-time snapshots make a
// check's latencies a function of its dispatch point alone.
func (s *System) snapshotBeyond(pos noc.Coord, bb *checkerBuffer) {
	n := len(s.layout.LLCPos)
	if cap(bb.latNS) < n {
		bb.latNS = make([]float64, n)
		bb.queueNS = make([]float64, n)
	}
	bb.latNS, bb.queueNS = bb.latNS[:n], bb.queueNS[:n]
	// Copied, not referenced: the route table moves on at the next load
	// refresh, and the join must sample queueNS as it stood here.
	routes := s.routesFrom(pos)
	for i := range routes.slices {
		r := routes.at(s, i)
		bb.latNS[i] = r.roundNS + s.cfg.L3HitNS
		bb.queueNS[i] = r.queueNS
	}
	bb.accs = bb.accs[:0]
}

// pendingCheck is one segment check: the inputs dispatch computed, the
// outputs run produced, and — under the deferred-join protocol — the
// buffered effects and log arenas the join merges. Each Checker embeds
// one and reuses it for every check it runs, so its latency tables and
// access list keep their capacity.
type pendingCheck struct {
	l   *lane
	ck  *Checker
	seg *Segment
	// execAt is the lane's executed-instruction count at dispatch, so
	// detection attribution at a (later) join records exactly what a
	// synchronous check records.
	execAt int64

	startNS   float64
	lineLatNS float64

	// Deferred-join state. entries/ops back seg.Entries; the join
	// returns them to the lane's spare-arena pool once the checker is
	// done reading them. bb buffers the check's beyond-L2 accesses.
	entries []Entry
	ops     []MemRec
	bb      checkerBuffer

	// SpecCache state (spec.go). recInto, when non-nil, receives the
	// verdict at the join, so a recording stream can prove itself clean
	// before publication. specReplay marks a deferred-join replay-lane
	// segment: the checker core re-walks the segment's effect sequence
	// from specCur — the lane's cursor snapshot at segment entry
	// (bit-equivalent to a live replay for every field the timing model
	// reads) — and the verdict is synthesised clean instead of
	// re-verified, which is sound because only clean streams are ever
	// published.
	specReplay bool
	specCur    specCursor
	recInto    *recSeg

	// Outputs, written by run and applied by settle.
	res    CheckResult
	durNS  float64
	doneNS float64
}

// run executes the verification itself on the checker core: the LSL$
// fill, the replay feeding the core's timing model, and the completion
// floor. It touches the checker's core, scratch and record; under the
// deferred-join protocol the core's beyond-L2 accesses land in the
// record's buffer, otherwise they reach the live LLC and mesh.
func (p *pendingCheck) run(s *System) {
	ck := p.ck
	// The log lines land in the checker's repurposed L1D, evicting any
	// resident data in place (fig. 3).
	if s.cfg.DedicatedLSLBytes == 0 {
		for i := 0; i < p.seg.LogLines; i++ {
			ck.Core.Hier.L1D.LogAppendLine()
		}
	}
	ck.Core.AdvanceTo(p.startNS * ck.FreqGHz)
	c0 := ck.Core.Cycles()
	switch {
	case p.specReplay:
		// Replay mode: the stream was functionally verified clean when
		// it was recorded, so only the checker-core timing needs
		// computing — off the same reconstructed effect sequence the
		// main core consumed, re-walked from the segment-entry cursor.
		cu := p.specCur
		var eff emu.Effect
		for n := uint64(0); n < p.seg.Insts; n++ {
			if !cu.next(&eff) {
				break
			}
			ck.Core.Consume(&eff)
		}
		p.res = CheckResult{OK: true, Insts: p.seg.Insts}
	case p.l.div != nil:
		p.res = CheckSegmentDivergent(p.l.proc.plan, p.l.div.mem, p.seg, s.checkerIntc(p.l, ck), func(e *emu.Effect) {
			ck.Core.Consume(e)
		})
	default:
		p.res = ck.scratch.CheckSegment(p.l.proc.w.Prog, p.seg, s.cfg.HashMode, s.checkerIntc(p.l, ck), func(e *emu.Effect) {
			ck.Core.Consume(e)
		})
	}
	p.durNS = (ck.Core.Cycles() - c0) / ck.FreqGHz
	p.doneNS = p.startNS + p.durNS
	if s.cfg.EagerWake {
		// The check cannot finish before the final line and end
		// checkpoint arrive.
		if floor := p.seg.EndNS + p.lineLatNS; p.doneNS < floor {
			p.doneNS = floor
		}
	}
	// The LSL$ lines are freed at checkpoint end (section IV-F
	// footnote 12).
	ck.Core.Hier.L1D.LogReset()
}

// checkerIntc returns checker ck's fault injector for lane l, or nil.
func (s *System) checkerIntc(l *lane, ck *Checker) emu.Interceptor {
	if s.cfg.CheckerInterceptor == nil {
		return nil
	}
	return s.cfg.CheckerInterceptor(l.idx, ck.ID)
}

// dispatch verifies seg on checker ck. It models the NoC transfer,
// computes the check's start time, runs the check at once, and either
// settles it (synchronous runs, which then feed recovery) or leaves its
// shared-state effects buffered until joinCheck (deferred joins).
func (s *System) dispatch(l *lane, ck *Checker, seg *Segment) {
	if ck.pending != nil {
		panic("core: dispatch onto a checker with an unjoined check")
	}
	s.metrics.CheckQueueDepth.Observe(s.queueDepth(l, seg))

	// NoC traffic: the log lines plus start/end register checkpoints.
	xferBytes := float64(seg.LogBytes) + 2*float64(l.rcu.CheckpointTransferBytes())
	if s.cfg.LSLTrafficOnNoC {
		s.flows.add(l.pos, ck.Pos, xferBytes)
	}
	lineLatNS := s.mesh.LatencyNS(l.pos, ck.Pos, LineBytes)

	var startNS float64
	if s.cfg.EagerWake {
		// The checker starts as soon as the first line lands
		// (section IV-H); it cannot run past pushed lines, which shows
		// up as the completion floor in run.
		startNS = math.Max(seg.StartNS+lineLatNS, ck.FreeAtNS)
	} else {
		startNS = math.Max(seg.EndNS+lineLatNS, ck.FreeAtNS)
	}

	p := &ck.check
	*p = pendingCheck{
		l: l, ck: ck, seg: seg, execAt: l.executed,
		startNS: startNS, lineLatNS: lineLatNS,
		bb: p.bb,
	}

	if !s.pipelined {
		p.run(s)
		s.settle(p)
		if s.recovering() {
			s.observe(l, ck, seg.Insts, p.res.Detected())
			if p.res.Detected() {
				s.recover(l, ck, seg, p.doneNS)
			} else {
				// The segment is verified clean: retain it as probation
				// material and let probation checkers shadow-check it.
				s.retainProbationSeg(l, seg)
				s.shadowCheck(l, seg, p.doneNS)
			}
		}
		return
	}

	if sp := l.spec; sp != nil && sp.mode == claimReplay {
		p.specReplay = true
		p.specCur = sp.segCur
	} else if sp != nil {
		// A recording lane sealed this segment just before dispatch.
		p.recInto = sp.segs[len(sp.segs)-1]
	}
	s.snapshotBeyond(ck.Pos, &p.bb)
	ck.pending = p
	// doneNS >= startNS always, and under eager wake the explicit
	// completion floor also applies: together a sound lower bound on
	// the checker's final FreeAtNS.
	ck.floorNS = math.Max(startNS, seg.EndNS+lineLatNS)
	// The check owns the lane's log arenas until its join; hand the
	// lane a replacement so the next segment cannot scribble over a log
	// the checker is still reading.
	p.entries, p.ops = l.entries, l.ops
	l.takeArena()
	p.run(s)
}

// queueDepth counts the checks on l's pool not finished when seg's
// checkpoint closes, the one about to be dispatched included: the
// checker backlog the main core has built up. Every check's completion
// time is known once it has run, joined or not, so the count reads the
// same on both settle paths.
func (s *System) queueDepth(l *lane, seg *Segment) uint64 {
	depth := uint64(1)
	for _, c := range l.alloc.Checkers() {
		done := c.FreeAtNS
		if c.pending != nil {
			done = c.pending.doneNS
		}
		if done > seg.EndNS {
			depth++
		}
	}
	return depth
}

// settle applies a finished check's outcome: the checker's availability
// and energy statistics, the latency and trace samples, the divergent
// counters, and detection accounting.
func (s *System) settle(p *pendingCheck) {
	l, ck := p.l, p.ck
	ck.FreeAtNS = p.doneNS
	// Energy accrues only while computing; a checker that outpaces the
	// arriving log lines sleeps (section IV-H) and is treated as gated.
	ck.BusyNS += p.durNS
	ck.Insts += p.res.Insts
	ck.Segments++

	s.metrics.CheckLatencyNS.Observe(uint64(p.durNS + 0.5))
	s.traceCheck(l, ck, p.seg, p.startNS, p.durNS)

	if l.div != nil {
		s.metrics.SegmentsCheckedDivergent++
		for _, m := range p.res.Mismatches {
			if m.Kind == MismatchLoadData {
				s.metrics.DivergentDataMismatches++
			}
		}
	}
	if p.res.Detected() {
		s.metrics.SegmentsMismatched++
		l.res.Detections++
		if l.res.FirstDetectionInst < 0 {
			l.res.FirstDetectionInst = p.execAt
		}
		if room := sampleMismatchCap - len(l.res.SampleMismatches); room > 0 {
			mm := p.res.Mismatches
			if len(mm) > room {
				mm = mm[:room]
			}
			l.res.SampleMismatches = append(l.res.SampleMismatches, mm...)
		}
	}
}

// joinCheck merges ck's deferred check into the shared simulator state.
// Callers reach it only through protocol-defined join points, so the
// merge sequence is a function of the run loop alone.
func (s *System) joinCheck(ck *Checker) {
	p := ck.pending
	if p == nil {
		return
	}
	ck.pending = nil

	// Replay the buffered beyond-L2 accesses against the shared LLC,
	// flow tracker and contention statistics.
	routes := s.routesFrom(ck.Pos)
	nslice := uint64(len(routes.slices))
	for _, a := range p.bb.accs {
		i := (a.addr / 64) % nslice
		r := &routes.slices[i]
		s.flows.bytes[r.req] += 16
		s.flows.bytes[r.resp] += LineBytes + 8
		s.llcExtraSum += p.bb.queueNS[i]
		s.llcExtraN++
		s.l3.Access(a.addr, a.write)
	}
	s.settle(p)

	// A recording stream keeps the verdict alongside the segment so a
	// later replay can reuse it without re-running the functional check.
	if p.recInto != nil {
		p.recInto.verdict = p.res
	}
	// Return the log arenas to the lane for reuse.
	l := p.l
	l.spareEntries = append(l.spareEntries, p.entries)
	l.spareOps = append(l.spareOps, p.ops)
}

// forceAll joins every pending check on l's pool in segment order, so
// bulk joins (warm snapshot, collection) merge in the same sequence the
// checks were dispatched.
func (s *System) forceAll(l *lane) {
	if l.alloc == nil {
		return
	}
	var pend []*Checker
	for _, ck := range l.alloc.Checkers() {
		if ck.pending != nil {
			pend = append(pend, ck)
		}
	}
	sort.Slice(pend, func(i, j int) bool {
		return pend[i].pending.seg.Seq < pend[j].pending.seg.Seq
	})
	for _, ck := range pend {
		s.joinCheck(ck)
	}
}

// takeArena replaces the lane's log buffers after their ownership moved
// to a pending check, recycling arenas returned by earlier joins.
func (l *lane) takeArena() {
	if n := len(l.spareEntries); n > 0 {
		l.entries = l.spareEntries[n-1][:0]
		l.ops = l.spareOps[n-1][:0]
		l.spareEntries = l.spareEntries[:n-1]
		l.spareOps = l.spareOps[:n-1]
		return
	}
	l.entries = make([]Entry, 0, 1024)
	l.ops = make([]MemRec, 0, 1024)
}
