package core

// Deferred-join verification: a lockstep check runs at its dispatch
// point, but every effect it has on shared simulator state is merged
// later, at a protocol-defined join.
//
// The synchronous engine (System.dispatch) runs CheckSegment against
// the live shared state: the checker's beyond-L2 accesses read and
// write the LLC, the DRAM model, the mesh flow tracker and the
// contention statistics interleaved with main-lane progress. Under the
// deferred-join protocol every one of those touches becomes either a
// dispatch-time snapshot (inputs) or a join-time merge (effects):
//
//   - Inputs. The check's start time, the per-line mesh transfer
//     latency, and the per-LLC-slice beyond-L2 latencies the checker's
//     instruction fetches observe are all computed at dispatch, under
//     the mesh load current at that protocol point (snapshotBeyond).
//   - Effects. LLC accesses, flow-tracker bytes, queueing-delay
//     statistics, detection accounting, and the checker's own
//     FreeAtNS/Busy/Insts/Segments are buffered in the pendingCheck and
//     merged by joinCheck.
//
// Joins happen only at protocol-defined points of the run loop:
// allocator pool queries (AcquireFree forces a pending checker only
// when its completion floor says it might already be free;
// EarliestFree forces unconditionally), the warmup snapshot, and final
// collection.
//
// Checks run inline, on the run loop's own goroutine. The protocol is
// not a concurrency device: it is the checker's memory model. A checker
// beyond-L2 access is charged the snapshotted mesh round trip plus the
// L3 hit latency, without consulting the LLC contents for a miss, and
// the LLC sees the access only at the join. Checker loads and stores
// never touch the memory hierarchy at all (the LSL$ serves them,
// section IV footnote 12), so beyond-L2 traffic is instruction fetch
// only; the checkers' code working set sits comfortably in their
// private L2, so such accesses all but vanish after the first
// segments. The merge order at joins still moves LLC occupancy and NoC
// load, so the published tables depend on the protocol.
//
// Runs with Recovery.Enabled or a CheckerInterceptor keep the
// synchronous dispatch: re-replay, forensics and quarantine decisions
// consume a check's verdict immediately and reshape the pool, and
// injectors carry per-run mutable state, so neither composes with
// deferred joins. Such a run may still replay the main core's stream
// from the SpecCache (spec.go); its checks then run for real on the
// synchronous path, and only pipelined replays synthesise verdicts.

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

// checkerBuffer captures a pending check's beyond-L2 side effects. The
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
// deferred-join protocol: it routes through the owning pending check's
// buffer. c.bb is installed at dispatch, before the check can execute
// a single instruction, so it is never nil while the core runs.
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
	for i, slice := range s.layout.LLCPos {
		req := s.mesh.LatencyNS(pos, slice, 16)
		resp := s.mesh.LatencyNS(slice, pos, LineBytes+8)
		bb.latNS[i] = req + resp + s.cfg.L3HitNS
		bb.queueNS[i] = s.mesh.QueueingNS(pos, slice, 16) + s.mesh.QueueingNS(slice, pos, LineBytes+8)
	}
	bb.accs = bb.accs[:0]
}

// pendingCheck is one dispatched-but-unmerged segment verification: the
// snapshotted inputs the job consumes, the log arenas whose ownership
// moved from the lane to the check, and the outputs the join merges.
type pendingCheck struct {
	l   *lane
	ck  *Checker
	seg *Segment
	// execAt is the lane's executed-instruction count at dispatch, so
	// detection attribution at the (later) join records exactly what
	// the synchronous engine would have recorded inline.
	execAt int64
	// entries/ops back seg.Entries; the join returns them to the lane's
	// spare-arena pool once the checker is done reading them.
	entries []Entry
	ops     []MemRec

	startNS   float64
	lineLatNS float64
	bb        checkerBuffer

	// SpecCache state (spec.go). recInto, when non-nil, receives the
	// verdict at the join, so a recording stream can prove itself clean
	// before publication. specReplay marks a replay-lane segment:
	// the checker core re-walks the segment's effect sequence from
	// specCur — the lane's cursor snapshot at segment entry
	// (bit-equivalent to a live replay for every field the timing model
	// reads) — and the verdict is synthesised clean instead of
	// re-verified, which is sound because only clean streams are ever
	// published.
	specReplay bool
	specCur    specCursor
	recInto    *recSeg

	// Job outputs, written by run and merged by joinCheck.
	res    CheckResult
	durNS  float64
	doneNS float64
}

// run executes the verification itself. It touches only checker-owned
// state (the core's caches, predictor and clock), the pending check's
// own buffer, and immutable inputs — never the shared LLC, DRAM, mesh
// or lane results.
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
	if p.specReplay {
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
	} else {
		p.res = ck.scratch.CheckSegment(p.l.proc.w.Prog, p.seg, s.cfg.HashMode, nil, func(e *emu.Effect) {
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

// dispatchPipelined runs seg's verification on ck under the
// deferred-join protocol. All shared-state inputs are snapshotted here;
// the check runs at once, and its effects stay buffered until
// joinCheck.
func (s *System) dispatchPipelined(l *lane, ck *Checker, seg *Segment) {
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

	p := &pendingCheck{
		l: l, ck: ck, seg: seg, execAt: l.executed,
		entries: l.entries, ops: l.ops,
		startNS: startNS, lineLatNS: lineLatNS,
	}
	if sp := l.spec; sp != nil && sp.mode == claimReplay {
		p.specReplay = true
		p.specCur = sp.segCur
	} else if sp != nil {
		// A recording lane sealed this segment just before dispatch.
		p.recInto = sp.segs[len(sp.segs)-1]
	}
	s.snapshotBeyond(ck.Pos, &p.bb)
	ck.bb = &p.bb
	ck.pending = p
	// doneNS >= startNS always, and under eager wake the explicit
	// completion floor also applies: together a sound lower bound on
	// the checker's final FreeAtNS.
	ck.floorNS = math.Max(startNS, seg.EndNS+lineLatNS)

	// The check owns the lane's log arenas until its join; hand the
	// lane a replacement so the next segment cannot scribble over a log
	// the checker is still reading.
	l.takeArena()

	// Queue-depth sample: unjoined checks on this pool, the new one
	// included. The pending set at a dispatch point is protocol-defined
	// (joins happen only at pool queries).
	depth := uint64(0)
	for _, c := range l.alloc.Checkers() {
		if c.pending != nil {
			depth++
		}
	}
	s.metrics.CheckQueueDepth.Observe(depth)

	p.run(s)
}

// joinCheck merges ck's pending verification into the shared simulator
// state. Callers reach it only through protocol-defined join points,
// so the merge sequence is a function of the run loop alone.
func (s *System) joinCheck(ck *Checker) {
	p := ck.pending
	if p == nil {
		return
	}
	ck.pending = nil
	ck.bb = nil

	ck.FreeAtNS = p.doneNS
	// Energy accrues only while computing; a checker that outpaces the
	// arriving log lines sleeps (section IV-H) and is treated as gated.
	ck.BusyNS += p.durNS
	ck.Insts += p.res.Insts
	ck.Segments++

	// Replay the buffered beyond-L2 accesses against the shared LLC,
	// flow tracker and contention statistics.
	nslice := uint64(len(s.layout.LLCPos))
	for _, a := range p.bb.accs {
		i := (a.addr / 64) % nslice
		slice := s.layout.LLCPos[i]
		s.flows.add(ck.Pos, slice, 16)
		s.flows.add(slice, ck.Pos, LineBytes+8)
		s.llcExtraSum += p.bb.queueNS[i]
		s.llcExtraN++
		s.l3.Access(a.addr, a.write)
	}

	// Joins are reached only through protocol-defined points (pool
	// queries, warm snapshot, collection), which fixes the latency
	// observation order and with it the metrics shard.
	s.metrics.CheckLatencyNS.Observe(uint64(p.durNS + 0.5))
	s.traceCheck(p.l, ck, p.seg, p.startNS, p.durNS)

	l := p.l
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

	// A recording stream keeps the verdict alongside the segment so a
	// later replay can reuse it without re-running the functional check.
	if p.recInto != nil {
		p.recInto.verdict = p.res
	}

	// Return the log arenas to the lane for reuse.
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
