package core

import (
	"math"

	"paraverser/internal/emu"
	"paraverser/internal/maintenance"
)

// RecoveryEvent records one detection's trip through the recovery
// pipeline: the re-replays on alternate checkers, the forensic verdict,
// and the latency the recovery itself cost.
type RecoveryEvent struct {
	// Seq is the failing segment's sequence number; Checker the suspect
	// checker's ID; DetectInst the main-core instruction count at
	// detection.
	Seq        int
	Checker    int
	DetectInst int64
	// Retries is how many alternate-checker replays ran; ReplayedClean
	// whether any of them verified the segment clean.
	Retries       int
	ReplayedClean bool
	// Verdict is the forensics classification of the event.
	Verdict Diagnosis
	// Quarantined reports whether the suspect left the pool over this
	// event.
	Quarantined bool
	// LatencyInsts is the instructions replayed during recovery;
	// LatencyNS the wall-clock the replays occupied.
	LatencyInsts uint64
	LatencyNS    float64
}

// RecoveryStats aggregates the recovery pipeline's activity for one
// lane. All counters cover the measured window (warmup is subtracted).
type RecoveryStats struct {
	// Events is how many detections entered recovery; Retries the total
	// alternate-checker replays; ReplayedClean how many events had the
	// segment re-verify clean on another checker.
	Events        int
	Retries       int
	ReplayedClean int

	// Verdict tally, using the forensics taxonomy of section V.
	CheckerPersistent   int
	CheckerIntermittent int
	MainSuspected       int
	Unreproduced        int

	// Quarantines, Readmissions and Retirements count pool transitions;
	// ProbationChecks the shadow checks run by probation checkers.
	Quarantines     int
	Readmissions    int
	Retirements     int
	ProbationChecks int

	// ReplayInsts and ReplayNS are the recovery pipeline's own cost.
	ReplayInsts uint64
	ReplayNS    float64
}

func (r *RecoveryStats) sub(w RecoveryStats) {
	r.Events -= w.Events
	r.Retries -= w.Retries
	r.ReplayedClean -= w.ReplayedClean
	r.CheckerPersistent -= w.CheckerPersistent
	r.CheckerIntermittent -= w.CheckerIntermittent
	r.MainSuspected -= w.MainSuspected
	r.Unreproduced -= w.Unreproduced
	r.Quarantines -= w.Quarantines
	r.Readmissions -= w.Readmissions
	r.Retirements -= w.Retirements
	r.ProbationChecks -= w.ProbationChecks
	r.ReplayInsts -= w.ReplayInsts
	r.ReplayNS -= w.ReplayNS
}

// add accumulates another lane's (or trial's) stats, for aggregation.
func (r *RecoveryStats) Add(o RecoveryStats) {
	r.Events += o.Events
	r.Retries += o.Retries
	r.ReplayedClean += o.ReplayedClean
	r.CheckerPersistent += o.CheckerPersistent
	r.CheckerIntermittent += o.CheckerIntermittent
	r.MainSuspected += o.MainSuspected
	r.Unreproduced += o.Unreproduced
	r.Quarantines += o.Quarantines
	r.Readmissions += o.Readmissions
	r.Retirements += o.Retirements
	r.ProbationChecks += o.ProbationChecks
	r.ReplayInsts += o.ReplayInsts
	r.ReplayNS += o.ReplayNS
}

// recovering reports whether the recovery pipeline is live.
func (s *System) recovering() bool { return s.cfg.Recovery.Enabled }

// laneMainID and laneCheckerID map simulated cores onto fleet CoreIDs
// for the maintenance tracker: main cores live on socket 0; each lane's
// checker pool is presented as its own socket.
func laneMainID(l *lane) maintenance.CoreID {
	return maintenance.CoreID{Socket: 0, Core: l.idx}
}

func laneCheckerID(l *lane, ck *Checker) maintenance.CoreID {
	return maintenance.CoreID{Socket: 1 + l.idx, Core: ck.ID}
}

// observe feeds one checked-segment outcome into the live maintenance
// tracker (the predictive-maintenance use case of section I).
func (s *System) observe(l *lane, ck *Checker, insts uint64, detected bool) {
	if s.tracker == nil {
		return
	}
	s.tracker.Record(maintenance.Observation{
		Main:     laneMainID(l),
		Checker:  laneCheckerID(l, ck),
		Insts:    insts,
		Detected: detected,
	})
}

// replayOn re-runs seg's check on ck, modelling the retransmission of
// the retained log over the mesh and the checker's execution time. The
// replay uses ck's own fault environment, so a faulty partner can fail
// a replay too. Returns the check result and the completion time.
func (s *System) replayOn(l *lane, ck *Checker, seg *Segment, nowNS float64) (CheckResult, float64) {
	lineLatNS := s.mesh.LatencyNS(l.pos, ck.Pos, LineBytes)
	if s.cfg.LSLTrafficOnNoC {
		xfer := float64(seg.LogBytes) + 2*float64(l.rcu.CheckpointTransferBytes())
		s.flows.add(l.pos, ck.Pos, xfer)
	}
	startNS := math.Max(nowNS+lineLatNS, ck.FreeAtNS)
	ck.Core.AdvanceTo(startNS * ck.FreqGHz)
	c0 := ck.Core.Cycles()
	res := ck.scratch.CheckSegment(l.proc.w.Prog, seg, s.cfg.HashMode, s.checkerIntc(l, ck), func(e *emu.Effect) {
		ck.Core.Consume(e)
	})
	durNS := (ck.Core.Cycles() - c0) / ck.FreqGHz
	doneNS := startNS + durNS
	ck.FreeAtNS = doneNS
	ck.BusyNS += durNS
	ck.Insts += res.Insts
	ck.Segments++
	return res, doneNS
}

// recover drives the closed loop for one detection: bounded re-replay on
// rotating alternate checkers, forensic classification, maintenance
// feedback, and quarantine of implicated checkers.
func (s *System) recover(l *lane, suspect *Checker, seg *Segment, detectNS float64) {
	rc := s.cfg.Recovery
	st := &l.res.Recovery
	st.Events++
	ev := RecoveryEvent{
		Seq:        seg.Seq,
		Checker:    suspect.ID,
		DetectInst: l.executed,
	}

	// Bounded re-replay on different checkers, rotating partners.
	now := detectNS
	for try := 0; try < rc.MaxReplays; try++ {
		partner := l.alloc.NextPartner(suspect, now)
		if partner == nil {
			break // pool exhausted; fall through to forensics alone
		}
		res, doneNS := s.replayOn(l, partner, seg, now)
		ev.Retries++
		st.Retries++
		ev.LatencyInsts += res.Insts
		s.observe(l, partner, seg.Insts, res.Detected())
		now = doneNS
		if !res.Detected() {
			ev.ReplayedClean = true
			break
		}
	}
	ev.LatencyNS = now - detectNS
	st.ReplayInsts += ev.LatencyInsts
	st.ReplayNS += ev.LatencyNS
	s.metrics.SegmentsReplayed += uint64(ev.Retries)
	if ev.ReplayedClean {
		st.ReplayedClean++
	}

	// Repeat replays on the suspect's fault environment plus a reference
	// replay classify the culprit (section V). These run out-of-band on
	// the implicated core, so they are not charged to the lane's clock.
	rep := suspect.scratch.Investigate(l.proc.w.Prog, seg, s.cfg.HashMode, s.checkerIntc(l, suspect), rc.ForensicRounds)
	ev.Verdict = rep.Diagnosis

	switch rep.Diagnosis {
	case CheckerPersistent:
		st.CheckerPersistent++
	case CheckerIntermittent:
		st.CheckerIntermittent++
	case MainSuspected:
		st.MainSuspected++
	case NotReproduced:
		st.Unreproduced++
	}

	// A checker implicated by forensics — or one whose flagged segment
	// re-verified clean elsewhere while the suspect keeps failing — is
	// quarantined.
	if rep.Diagnosis == CheckerPersistent || rep.Diagnosis == CheckerIntermittent {
		retired := l.alloc.Quarantine(suspect, now, rc.Quarantine)
		ev.Quarantined = true
		st.Quarantines++
		s.metrics.Quarantines++
		if retired {
			st.Retirements++
			s.metrics.Retirements++
		}
	}

	if len(l.res.SampleRecoveries) < sampleRecoveryCap {
		l.res.SampleRecoveries = append(l.res.SampleRecoveries, ev)
	}
}

// retainProbationSeg keeps a private copy of the latest clean segment so
// probation checkers have verified material to shadow-check even when
// the lane is running degraded. Only retained while the pool is
// impaired; the copy cost is zero in healthy steady state.
func (s *System) retainProbationSeg(l *lane, seg *Segment) {
	if !l.alloc.Impaired() {
		l.lastClean = nil
		return
	}
	cp := *seg
	cp.Entries = append([]Entry(nil), seg.Entries...)
	// The entries' Ops alias the lane's log arena, which the next
	// beginSegment truncates and overwrites — the retained copy needs
	// records of its own.
	total := 0
	for _, e := range seg.Entries {
		total += len(e.Ops)
	}
	ops := make([]MemRec, 0, total)
	for i := range cp.Entries {
		start := len(ops)
		ops = append(ops, cp.Entries[i].Ops...)
		cp.Entries[i].Ops = ops[start:len(ops):len(ops)]
	}
	l.lastClean = &cp
}

// shadowCheck gives free probation checkers a pass over a segment
// already verified clean by a healthy checker, and applies the probation
// policy to the outcome.
func (s *System) shadowCheck(l *lane, seg *Segment, nowNS float64) {
	st := &l.res.Recovery
	// Each shadow replay makes its checker busy, so this loop visits
	// every idle probation checker exactly once and terminates.
	for {
		p := l.alloc.ProbationFree(nowNS)
		if p == nil {
			return
		}
		res, _ := s.replayOn(l, p, seg, nowNS)
		st.ProbationChecks++
		s.metrics.ShadowChecks++
		s.observe(l, p, seg.Insts, res.Detected())
		readmitted, retired := l.alloc.NoteProbation(p, !res.Detected(), nowNS, s.cfg.Recovery.Quarantine)
		if readmitted {
			st.Readmissions++
			s.metrics.Readmissions++
		}
		if retired {
			st.Retirements++
			s.metrics.Retirements++
		} else if res.Detected() {
			st.Quarantines++
			s.metrics.Quarantines++
		}
	}
}

// probationRetest re-tests probation checkers against the retained clean
// segment. This is the escape route out of full degradation: with every
// active checker quarantined there are no fresh verified segments, so
// re-admission rides on material retained before the pool emptied.
func (s *System) probationRetest(l *lane, nowNS float64) {
	if l.lastClean == nil {
		return
	}
	s.shadowCheck(l, l.lastClean, nowNS)
}
