package core

// Segment checks: one dispatch, one settle, and a deferred merge of the
// checker's beyond-L2 fetches.
//
// System.dispatch is the only function that starts a segment check. It
// models the NoC transfer and the check's start time, runs the
// verification inline on the run loop's own goroutine (runCheck: LSL$
// fill, checker-core timing, the replay itself and the completion
// floor), and settles the outcome at once: checker statistics, latency
// and trace samples, and detection accounting. A checker's FreeAtNS is
// therefore exact as soon as dispatch returns, on every run.
//
// What differs between runs is only when the shared LLC sees the
// checker core's instruction fetches beyond its private L2. Checker
// loads and stores never touch the memory hierarchy at all (the LSL$
// serves them, section IV footnote 12), so those fetches are the only
// shared state a check touches; the checkers' code working set sits
// comfortably in their private L2, so such accesses all but vanish
// after the first segments.
//
//   - A run without deferred joins points the checker core's
//     beyond-L2 hook at the live LLC, DRAM model, mesh flow tracker and
//     contention statistics (beyondFor).
//   - A deferred-join run (System.pipelined) points it at the checker's
//     buffer (beyondBuffered): each access is charged the mesh round
//     trip plus the L3 hit latency snapshotted at dispatch under the
//     mesh load current at that point (snapshotBeyond), without
//     consulting the LLC contents for a miss, and the LLC, flow tracker
//     and contention statistics see the access only at the join
//     (joinCheck).
//
// Joins happen only at protocol-defined points of the run loop:
// allocator pool queries (AcquireFree joins a checker only when its
// completion floor says it might already be free; EarliestFree joins
// unconditionally), the warmup snapshot, and final collection, where
// forceAll joins in segment order. The merge order moves LLC occupancy
// and NoC load, so the published tables depend on these points; that
// is all they are kept for.
//
// Only fault-free lockstep runs defer joins. Runs with
// Recovery.Enabled or a CheckerInterceptor reach the live LLC at once:
// re-replay, forensics and quarantine decisions consume a check's
// verdict immediately and reshape the pool, and injectors carry per-run
// mutable state. Divergent checking orders checks against the lane's
// private memory image, and chunk replay and relaxed start dispatch
// past segment close, so they do not defer either. A deferred-join
// replay of the main core's stream from the SpecCache (spec.go)
// synthesises clean verdicts; any other run verifies for real.

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

// checkerBuffer holds a deferred-join check's beyond-L2 accesses. The
// latency tables are snapshotted at dispatch; the access list is
// replayed into the shared LLC, flow tracker and contention statistics
// at the join.
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
// deferred-join protocol: it routes through the checker's buffer, whose
// latency tables dispatch snapshots before the check can execute a
// single instruction.
func (c *Checker) beyondBuffered(addr uint64, write, fetch bool) float64 {
	return c.bb.access(addr, write)
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

// runCheck executes the verification of seg on checker ck, starting at
// startNS: the LSL$ fill, the replay feeding the core's timing model,
// and the completion floor. It returns the check's result, its duration
// and its completion time.
func (s *System) runCheck(l *lane, ck *Checker, seg *Segment, startNS, lineLatNS float64) (res CheckResult, durNS, doneNS float64) {
	// The log lines land in the checker's repurposed L1D, evicting any
	// resident data in place (fig. 3).
	if s.cfg.DedicatedLSLBytes == 0 {
		for i := 0; i < seg.LogLines; i++ {
			ck.Core.Hier.L1D.LogAppendLine()
		}
	}
	ck.Core.AdvanceTo(startNS * ck.FreqGHz)
	c0 := ck.Core.Cycles()
	switch {
	case s.pipelined && l.spec != nil && l.spec.mode == claimReplay:
		// Replay mode: the stream was functionally verified clean when
		// it was recorded, so only the checker-core timing needs
		// computing — off the same reconstructed effect sequence the
		// main core consumed, re-walked from the segment-entry cursor
		// (bit-equivalent to a live replay for every field the timing
		// model reads).
		cu := l.spec.segCur
		var eff emu.Effect
		for n := uint64(0); n < seg.Insts; n++ {
			if !cu.next(&eff) {
				break
			}
			ck.Core.Consume(&eff)
		}
		res = CheckResult{OK: true, Insts: seg.Insts}
	case l.div != nil:
		res = CheckSegmentDivergent(l.proc.plan, l.div.mem, seg, s.checkerIntc(l, ck), func(e *emu.Effect) {
			ck.Core.Consume(e)
		})
	default:
		res = ck.scratch.CheckSegment(l.proc.w.Prog, seg, s.cfg.HashMode, s.checkerIntc(l, ck), func(e *emu.Effect) {
			ck.Core.Consume(e)
		})
	}
	durNS = (ck.Core.Cycles() - c0) / ck.FreqGHz
	doneNS = startNS + durNS
	if s.cfg.EagerWake {
		// The check cannot finish before the final line and end
		// checkpoint arrive.
		if floor := seg.EndNS + lineLatNS; doneNS < floor {
			doneNS = floor
		}
	}
	// The LSL$ lines are freed at checkpoint end (section IV-F
	// footnote 12).
	ck.Core.Hier.L1D.LogReset()
	return res, durNS, doneNS
}

// checkerIntc returns checker ck's fault injector for lane l, or nil.
func (s *System) checkerIntc(l *lane, ck *Checker) emu.Interceptor {
	if s.cfg.CheckerInterceptor == nil {
		return nil
	}
	return s.cfg.CheckerInterceptor(l.idx, ck.ID)
}

// dispatch verifies seg on checker ck. It models the NoC transfer,
// computes the check's start time, runs the check and settles it at
// once. A synchronous run then feeds recovery; a deferred-join run
// leaves only the check's beyond-L2 fetches buffered until joinCheck.
func (s *System) dispatch(l *lane, ck *Checker, seg *Segment) {
	if ck.pending {
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
		// up as the completion floor in runCheck.
		startNS = math.Max(seg.StartNS+lineLatNS, ck.FreeAtNS)
	} else {
		startNS = math.Max(seg.EndNS+lineLatNS, ck.FreeAtNS)
	}

	if s.pipelined {
		s.snapshotBeyond(ck.Pos, &ck.bb)
		ck.pending = true
		ck.pendingSeq = seg.Seq
		// doneNS >= startNS always, and under eager wake the explicit
		// completion floor also applies: together a lower bound on the
		// checker's FreeAtNS that holds under either wake policy.
		ck.floorNS = math.Max(startNS, seg.EndNS+lineLatNS)
	}
	res, durNS, doneNS := s.runCheck(l, ck, seg, startNS, lineLatNS)
	s.settle(l, ck, seg, &res, startNS, durNS, doneNS)

	if s.recovering() {
		s.observe(l, ck, seg.Insts, res.Detected())
		if res.Detected() {
			s.recover(l, ck, seg, doneNS)
		} else {
			// The segment is verified clean: retain it as probation
			// material and let probation checkers shadow-check it.
			s.retainProbationSeg(l, seg)
			s.shadowCheck(l, seg, doneNS)
		}
	}
}

// queueDepth counts the checks on l's pool not finished when seg's
// checkpoint closes, the one about to be dispatched included: the
// checker backlog the main core has built up.
func (s *System) queueDepth(l *lane, seg *Segment) uint64 {
	depth := uint64(1)
	for _, c := range l.alloc.Checkers() {
		if c.FreeAtNS > seg.EndNS {
			depth++
		}
	}
	return depth
}

// settle applies a finished check's outcome: the checker's availability
// and energy statistics, the latency and trace samples, the divergent
// counters, and detection accounting.
func (s *System) settle(l *lane, ck *Checker, seg *Segment, res *CheckResult, startNS, durNS, doneNS float64) {
	ck.FreeAtNS = doneNS
	// Energy accrues only while computing; a checker that outpaces the
	// arriving log lines sleeps (section IV-H) and is treated as gated.
	ck.BusyNS += durNS
	ck.Insts += res.Insts
	ck.Segments++

	s.metrics.CheckLatencyNS.Observe(uint64(durNS + 0.5))
	s.traceCheck(l, ck, seg, startNS, durNS)

	if l.div != nil {
		s.metrics.SegmentsCheckedDivergent++
		for _, m := range res.Mismatches {
			if m.Kind == MismatchLoadData {
				s.metrics.DivergentDataMismatches++
			}
		}
	}
	if res.Detected() {
		s.metrics.SegmentsMismatched++
		l.res.Detections++
		if l.res.FirstDetectionInst < 0 {
			l.res.FirstDetectionInst = l.executed
		}
		if room := sampleMismatchCap - len(l.res.SampleMismatches); room > 0 {
			mm := res.Mismatches
			if len(mm) > room {
				mm = mm[:room]
			}
			l.res.SampleMismatches = append(l.res.SampleMismatches, mm...)
		}
		if sp := l.spec; sp != nil && sp.mode == claimRecord {
			// A stream whose check detected must not be published:
			// replays synthesise clean verdicts (publishSpec).
			sp.dirty = true
		}
	}
}

// joinCheck merges ck's buffered beyond-L2 accesses into the shared
// LLC, flow tracker and contention statistics. Callers reach it only
// through protocol-defined join points, so the merge sequence is a
// function of the run loop alone.
func (s *System) joinCheck(ck *Checker) {
	if !ck.pending {
		return
	}
	ck.pending = false
	routes := s.routesFrom(ck.Pos)
	nslice := uint64(len(routes.slices))
	for _, a := range ck.bb.accs {
		i := (a.addr / 64) % nslice
		r := &routes.slices[i]
		s.flows.bytes[r.req] += 16
		s.flows.bytes[r.resp] += LineBytes + 8
		s.llcExtraSum += ck.bb.queueNS[i]
		s.llcExtraN++
		s.l3.Access(a.addr, a.write)
	}
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
		if ck.pending {
			pend = append(pend, ck)
		}
	}
	sort.Slice(pend, func(i, j int) bool {
		return pend[i].pendingSeq < pend[j].pendingSeq
	})
	for _, ck := range pend {
		s.joinCheck(ck)
	}
}
