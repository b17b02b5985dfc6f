package core

import (
	"errors"
	"fmt"
	"math"

	"paraverser/internal/cachesim"
	"paraverser/internal/cpu"
	"paraverser/internal/dram"
	"paraverser/internal/emu"
	"paraverser/internal/maintenance"
	"paraverser/internal/noc"
	"paraverser/internal/obs"
)

// System couples main cores to checker cores over the mesh: it drives the
// functional emulation segment by segment, feeds main- and checker-core
// timing models, applies the full-coverage/opportunistic resource policy,
// verifies every checked segment functionally, and models NoC contention
// by back-propagating queueing delay into LLC access latency (section VI).
type System struct {
	cfg    Config
	mesh   *noc.Mesh
	layout *noc.Layout
	l3     *cachesim.Cache
	mem    *dram.Model
	flows  *flowTracker
	// routes[row*Cols+col] caches LLC round-trip latencies from that
	// crosspoint (see routesFrom).
	routes []*llcRoutes

	procs []*process
	lanes []*lane

	// tracker is the live predictive-maintenance feed of the recovery
	// pipeline (nil when recovery is disabled).
	tracker *maintenance.Tracker

	// pipelined selects the deferred-join dispatch protocol
	// (pipeline.go): a check runs at its dispatch point against
	// dispatch-time snapshots of the shared state, and its shared-state
	// effects merge at protocol-defined join points.
	pipelined bool

	llcExtraSum float64
	llcExtraN   uint64

	// metrics is this run's observability shard (obs package). All writes
	// happen at protocol-defined points of the run loop, so the shard is
	// a deterministic function of the configuration.
	metrics *obs.RunMetrics
	// tracePID identifies this run in the (possibly shared) trace ring.
	tracePID uint64
}

type process struct {
	w    Workload
	mach *emu.Machine
	// plan is the process's decorrelated variant and layout map, built
	// once per program under the divergent strategy (nil otherwise).
	plan *DivergentPlan
}

type lane struct {
	idx  int
	name string
	proc *process
	hart int

	main  *cpu.Core
	alloc *Allocator
	pos   noc.Coord

	counter Counter
	lspu    *LSPU
	rcu     *RCU

	// Segment under construction. entries and ops are reused across
	// segments: ops is the arena backing every entry's Ops records
	// (EntryFromEffectArena), truncated together with entries at each
	// checkpoint, so steady-state logging allocates nothing.
	segStart emu.ArchState
	segSeq   int
	entries  []Entry
	ops      []MemRec
	// spareEntries/spareOps recycle log arenas through pending checks
	// under the deferred-join protocol: dispatch hands the live arena to
	// the check and takes a spare, the join returns it (pipeline.go).
	spareEntries [][]Entry
	spareOps     [][]MemRec
	segInsts     uint64
	segBytes     int
	segLines     int
	segChecked   bool
	sinceIRQ     uint64

	executed int64
	res      LaneResult
	done     bool

	// div is this lane's divergent-checking state (variant plan + private
	// memory image); nil in lockstep mode.
	div *divState

	// segDegraded marks the segment as a graceful-degradation window: a
	// full-coverage lane running unchecked because quarantine emptied
	// its active checker pool.
	segDegraded bool
	// lastClean is a retained copy of the latest clean-verified segment,
	// the shadow-check material for probation re-tests (section V notes
	// checkpoints are retained exactly for replay purposes).
	lastClean *Segment

	// warm snapshots statistics at the warmup boundary so finishLane can
	// report the measured window only.
	warmed bool
	warm   warmSnapshot

	// chunk is the lane's accumulating replay chunk (chunk-replay
	// strategy only; nil otherwise).
	chunk *chunkState
	// relaxLag counts consecutive segments the relaxed-start strategy
	// has dispatched onto a busy pool; bounded by defaultMaxLagSegments.
	relaxLag int

	// spec is this lane's SpecCache state (spec.go): a recording tap on
	// the live loop, or a replay cursor standing in for the emulator;
	// nil runs the loop plain.
	spec *laneSpec
}

// warmSnapshot captures counters at the end of the warmup phase.
type warmSnapshot struct {
	timeNS       float64
	insts        int64
	segments     int
	checked      uint64
	unchecked    uint64
	stallNS      float64
	checkpointNS float64
	logBytes     uint64
	logLines     uint64
	recovery     RecoveryStats
	degSegments  int
	degInsts     uint64
	degNS        float64
	ckBusyNS     []float64
	ckInsts      []uint64
	ckSegments   []int
}

// flowTracker accumulates steady-state traffic per mesh route and
// refreshes the mesh's offered load from cumulative bytes over elapsed
// time. bytes is dense: route from→to sits at index from*n+to, with
// crosspoints numbered row*Cols+col.
type flowTracker struct {
	cols, n int
	bytes   []float64
	// gen advances whenever refresh resets the mesh load; route tables
	// computed under an older generation are stale.
	gen uint64
}

func newFlowTracker(cfg noc.Config) *flowTracker {
	n := cfg.Rows * cfg.Cols
	// gen starts at 1 so a zero-valued sliceRoute is always stale.
	return &flowTracker{cols: cfg.Cols, n: n, bytes: make([]float64, n*n), gen: 1}
}

func (f *flowTracker) index(from, to noc.Coord) int {
	return (from.Row*f.cols+from.Col)*f.n + to.Row*f.cols + to.Col
}

func (f *flowTracker) add(from, to noc.Coord, bytes float64) {
	f.bytes[f.index(from, to)] += bytes
}

func (f *flowTracker) refresh(mesh *noc.Mesh, elapsedNS float64) {
	if elapsedNS < 1000 {
		return // too early for a meaningful rate
	}
	mesh.ResetLoad()
	f.gen++
	// Index order is route order sorted by (from.Row, from.Col, to.Row,
	// to.Col). The order is fixed because per-link load accumulation is
	// floating-point addition. Routes that never carried traffic would
	// add zero load, so they are skipped.
	for k, b := range f.bytes {
		if b == 0 {
			continue
		}
		from, to := k/f.n, k%f.n
		mesh.AddFlow(noc.Coord{Row: from / f.cols, Col: from % f.cols},
			noc.Coord{Row: to / f.cols, Col: to % f.cols}, b/elapsedNS)
	}
}

// sliceRoute is one core position's round trip to one LLC slice: the
// flow indices of its request and response, and their latencies under
// the mesh load of generation gen.
type sliceRoute struct {
	req, resp int
	gen       uint64
	roundNS   float64 // request + response latency
	queueNS   float64 // the queueing-delay part of roundNS
}

// llcRoutes is the per-slice route table of one crosspoint, shared by
// every core placed there. The mesh load changes only at refresh, so
// each entry is recomputed at most once per generation instead of once
// per LLC access.
type llcRoutes struct {
	pos    noc.Coord
	slices []sliceRoute
}

// routesFrom returns pos's route table, building it on first use.
func (s *System) routesFrom(pos noc.Coord) *llcRoutes {
	k := pos.Row*s.cfg.NoC.Cols + pos.Col
	if s.routes[k] == nil {
		t := &llcRoutes{pos: pos, slices: make([]sliceRoute, len(s.layout.LLCPos))}
		for i, slice := range s.layout.LLCPos {
			t.slices[i].req = s.flows.index(pos, slice)
			t.slices[i].resp = s.flows.index(slice, pos)
		}
		s.routes[k] = t
	}
	return s.routes[k]
}

// at returns the route to LLC slice i under the current mesh load.
func (t *llcRoutes) at(s *System, i int) *sliceRoute {
	r := &t.slices[i]
	if r.gen != s.flows.gen {
		slice := s.layout.LLCPos[i]
		r.roundNS = s.mesh.LatencyNS(t.pos, slice, 16) + s.mesh.LatencyNS(slice, t.pos, LineBytes+8)
		r.queueNS = s.mesh.QueueingNS(t.pos, slice, 16) + s.mesh.QueueingNS(slice, t.pos, LineBytes+8)
		r.gen = s.flows.gen
	}
	return r
}

// NewSystem builds a system for the given workloads. Each hart of each
// workload occupies one main core, placed per the layout.
func NewSystem(cfg Config, workloads []Workload) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(workloads) == 0 {
		return nil, fmt.Errorf("core: no workloads")
	}
	s := &System{
		cfg:     cfg,
		mesh:    noc.MustNew(cfg.NoC),
		layout:  cfg.Layout,
		l3:      cachesim.MustNew(cfg.L3),
		mem:     dram.New(cfg.DRAM),
		flows:   newFlowTracker(cfg.NoC),
		routes:  make([]*llcRoutes, cfg.NoC.Rows*cfg.NoC.Cols),
		metrics: obs.NewRunMetrics(),
	}
	if cfg.Trace != nil {
		s.tracePID = cfg.Trace.NextPID()
	}
	if cfg.Recovery.Enabled {
		s.tracker = maintenance.NewTracker()
	}
	// Recovery consumes check verdicts immediately (re-replay,
	// quarantine) and interceptors carry per-run mutable state; both
	// settle checks synchronously. So does every non-lockstep strategy:
	// divergent orders checks against its private memory image, chunk
	// replay and relaxed start dispatch past segment close.
	s.pipelined = len(cfg.Checkers) > 0 && !cfg.Recovery.Enabled &&
		cfg.CheckerInterceptor == nil && cfg.MainInterceptor == nil &&
		cfg.Strategy == StrategyLockstep
	divergent := cfg.Strategy == StrategyDivergent

	laneIdx := 0
	for _, w := range workloads {
		mach, err := emu.NewMachine(w.Prog, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: workload %q: %w", w.Name, err)
		}
		if cfg.MainInterceptor != nil {
			mach.Intc = cfg.MainInterceptor(laneIdx)
		}
		p := &process{w: w, mach: mach}
		if divergent && len(cfg.Checkers) > 0 {
			if len(mach.Harts) > 1 {
				// The divergent checker's private memory image tracks one
				// verified store stream; cross-hart stores would bypass it.
				return nil, fmt.Errorf("core: workload %q: divergent checking requires single-hart programs (got %d harts)", w.Name, len(mach.Harts))
			}
			p.plan, err = NewDivergentPlan(w.Prog)
			if err != nil {
				return nil, fmt.Errorf("core: workload %q: %w", w.Name, err)
			}
		}
		s.procs = append(s.procs, p)
		for hart := range mach.Harts {
			l, err := s.newLane(laneIdx, p, hart)
			if err != nil {
				return nil, err
			}
			s.lanes = append(s.lanes, l)
			laneIdx++
		}
	}
	if len(s.lanes) > len(s.layout.MainPos) {
		return nil, fmt.Errorf("core: %d lanes exceed %d main-core tiles", len(s.lanes), len(s.layout.MainPos))
	}
	return s, nil
}

func (s *System) newLane(idx int, p *process, hart int) (*lane, error) {
	mainCfg, mainFreq := s.cfg.Main, s.cfg.MainFreqGHz
	if idx < len(s.cfg.LaneMains) {
		mainCfg, mainFreq = s.cfg.LaneMains[idx].CPU, s.cfg.LaneMains[idx].FreqGHz
	}
	mainCore, err := cpu.NewCore(mainCfg, mainFreq, cpu.ModeMain)
	if err != nil {
		return nil, err
	}
	l := &lane{
		idx:  idx,
		name: p.w.Name,
		proc: p,
		hart: hart,
		main: mainCore,
		pos:  s.layout.Main(idx % len(s.layout.MainPos)),
		lspu: NewLSPU(s.cfg.HashMode),
		rcu:  NewRCU(s.cfg.HashMode),
		// Pre-size the log buffers for a typical segment so early
		// segments don't grow them incrementally.
		entries: make([]Entry, 0, 1024),
		ops:     make([]MemRec, 0, 1024),
	}
	l.res = LaneResult{
		Name: p.w.Name, Hart: hart, FirstDetectionInst: -1,
		CoreName: mainCfg.Name, FreqGHz: mainFreq,
	}
	mainCore.Hier.Beyond = s.beyondFor(l.pos)
	if p.plan != nil {
		l.div = newDivState(p.plan)
	}

	if len(s.cfg.Checkers) > 0 {
		ckMode := cpu.ModeChecker
		if s.cfg.Strategy == StrategyDivergent {
			ckMode = cpu.ModeCheckerDivergent
		}
		var checkers []*Checker
		id := 0
		for _, spec := range s.cfg.Checkers {
			for i := 0; i < spec.Count; i++ {
				ckCore, err := cpu.NewCore(spec.CPU, spec.FreqGHz, ckMode)
				if err != nil {
					return nil, err
				}
				pos := s.layout.Checker(idx%len(s.layout.MainPos), id)
				ck := &Checker{
					ID: id, Core: ckCore, FreqGHz: spec.FreqGHz, Pos: pos,
				}
				if s.pipelined {
					// Deferred joins: beyond-L2 accesses go through the
					// pending check's buffer instead of the shared
					// LLC/DRAM/mesh.
					ckCore.Hier.Beyond = ck.beyondBuffered
				} else {
					ckCore.Hier.Beyond = s.beyondFor(pos)
				}
				checkers = append(checkers, ck)
				id++
			}
		}
		l.alloc, err = NewAllocator(checkers)
		if err != nil {
			return nil, err
		}
		if s.pipelined {
			// Pool queries become the lazy join points of the
			// deferred-join protocol.
			l.alloc.SetJoin(func(c *Checker) { s.joinCheck(c) })
		}
		if s.cfg.Strategy == StrategyChunkReplay {
			// Pre-size the chunk arenas for one full chunk of typical
			// segments so accumulation rarely grows them.
			l.chunk = &chunkState{
				entries: make([]Entry, 0, defaultChunkSegments*1024),
				ops:     make([]MemRec, 0, defaultChunkSegments*1024),
			}
		}
	}
	return l, nil
}

// beyondFor wires a core position into the shared LLC + DRAM + mesh
// model: request and response cross the mesh under current load; the L3
// is physically sliced by line address.
func (s *System) beyondFor(pos noc.Coord) func(addr uint64, write, fetch bool) float64 {
	routes := s.routesFrom(pos)
	nslice := uint64(len(routes.slices))
	return func(addr uint64, write, fetch bool) float64 {
		r := routes.at(s, int((addr/64)%nslice))
		s.flows.bytes[r.req] += 16
		s.flows.bytes[r.resp] += LineBytes + 8
		s.llcExtraSum += r.queueNS
		s.llcExtraN++
		lat := r.roundNS + s.cfg.L3HitNS
		if !s.l3.Access(addr, write) {
			lat += s.mem.AccessNS(addr, 0)
		}
		return lat
	}
}

// checking reports whether this run verifies execution at all.
func (s *System) checking() bool { return len(s.cfg.Checkers) > 0 }

// Run executes every lane to completion (halt or MaxInsts), interleaving
// lanes in wall-clock order, and returns the collected results.
func (s *System) Run() (*Result, error) {
	if s.cfg.Spec != nil {
		s.initSpec()
	}
	for {
		l := s.nextLane()
		if l == nil {
			break
		}
		if err := s.runSegment(l); err != nil {
			// Unwind the cache claims; the failed system is discarded.
			if s.cfg.Spec != nil {
				s.abortSpec()
			}
			return nil, err
		}
	}
	return s.collect(), nil
}

// nextLane picks the live lane with the smallest local clock, which keeps
// shared-memory harts and shared-mesh lanes causally interleaved.
func (s *System) nextLane() *lane {
	var best *lane
	for _, l := range s.lanes {
		if l.done {
			continue
		}
		if best == nil || l.main.TimeNS() < best.main.TimeNS() {
			best = l
		}
	}
	return best
}

// runSegment executes one checkpoint interval on lane l: resource
// acquisition per the operating mode, functional execution with logging
// and main-core timing, then checker scheduling and verification.
func (s *System) runSegment(l *lane) error {
	hart := l.proc.mach.Harts[l.hart]
	budget := l.proc.w.MaxInsts
	if budget > 0 {
		budget += l.proc.w.WarmupInsts
	}
	if hart.Halted || (budget > 0 && l.executed >= budget) {
		s.finishLane(l)
		return nil
	}
	// A replay lane (spec.go) never steps the machine: its effects come
	// from the recorded stream, its architectural state is the one
	// rebuilt from them, and stream exhaustion is its halt. A recording
	// lane steps live and taps every effect into its stream.
	sp := l.spec
	replay := sp != nil && sp.mode == claimReplay
	rec := sp != nil && sp.mode == claimRecord
	state := &hart.State
	if replay {
		if sp.cur.done() {
			s.finishLane(l)
			return nil
		}
		state = &sp.state
	}

	now := l.main.TimeNS()
	var ck *Checker
	resumeAtNS := math.Inf(1)
	l.segChecked = false
	l.segDegraded = false

	if s.checking() {
		ck, resumeAtNS = s.acquire(l, now)
	}

	if l.div != nil {
		if l.segChecked && l.div.dirty {
			// Unchecked windows ran past the private image; rebuild it
			// from the main's pre-segment memory before this check. Both
			// are keyed by canonical address and overlay one program, so
			// the clone copies only the pages the main has written.
			l.div.mem, l.div.dirty = l.proc.mach.Mem.Clone(), false
		} else if !l.segChecked {
			// This segment's stores will not reach the private image.
			l.div.dirty = true
		}
	}

	capacityLines := 0
	if l.segChecked {
		capacityLines = s.lslCapacityLines(l, ck)
	}
	l.beginSegment(state, capacityLines, s.cfg.TimeoutInsts)
	if replay {
		// Snapshot the cursor at segment entry so the pending check can
		// re-walk exactly this segment's effects (pipeline.go).
		sp.segCur = sp.cur
	}
	startNS := l.main.TimeNS()

	// --- functional execution with logging and main-core timing ---
	var eff emu.Effect
	reason := BoundaryInvalid
	for reason == BoundaryInvalid {
		if replay {
			ok, err := s.specNext(l, &eff)
			if err != nil {
				return err
			}
			if !ok {
				// The stream ran dry without a halt or budget boundary:
				// it cannot be a recording of this workload. Degrade
				// like any divergence (evict, rerun sequentially).
				return s.specDiverged(l)
			}
		} else if err := l.proc.mach.StepHart(l.hart, &eff); err != nil {
			return fmt.Errorf("core: lane %d: %w", l.idx, err)
		} else if rec {
			sp.record(&eff)
		}
		l.main.Consume(&eff)
		reason = s.accountEffect(l, &eff, budget, resumeAtNS)
	}

	if rec {
		// Seal the segment's recording before dispatch: the pending
		// check lands its verdict in it at the join.
		sp.seal(l.segStart)
	}
	if sp != nil && reason == BoundaryHalt {
		// A replay halts only where its stream ends, at the recorded
		// final state.
		if replay && (!sp.cur.done() || !archEqual(&sp.state, &sp.stream.end)) {
			return s.specDiverged(l)
		}
		// The whole stream has run through this lane; collection may
		// publish the recording and any micro trace recorded over it.
		sp.sawEnd = true
		if rec {
			sp.end = hart.State
		}
	}

	// --- close the checkpoint ---
	l.segLines += l.lspu.Flush()
	if s.cfg.CheckpointDrains {
		l.main.Stall(s.cfg.CheckpointStallCycles)
	} else {
		l.main.FetchBubble(s.cfg.CheckpointStallCycles)
	}
	l.res.CheckpointNS += s.cfg.CheckpointStallCycles / (l.main.FreqGHz)
	endNS := l.main.TimeNS()
	l.res.Segments++
	s.metrics.Segments++
	s.metrics.Insts += l.segInsts
	s.metrics.CheckpointNS += uint64(s.cfg.CheckpointStallCycles/l.main.FreqGHz + 0.5)
	s.traceSegment(l, startNS, endNS)

	if !l.segChecked {
		// An unchecked window breaks the contiguous instruction stream a
		// replay chunk accumulates: flush the pending chunk before
		// accounting the gap.
		s.flushChunk(l)
		l.res.UncheckedInsts += l.segInsts
		s.metrics.SegmentsUnchecked++
		if l.segDegraded {
			l.res.DegradedSegments++
			l.res.DegradedInsts += l.segInsts
			l.res.DegradedNS += endNS - startNS
			s.metrics.SegmentsDegraded++
		}
		if s.recovering() {
			// Cooled-down checkers re-test against the retained clean
			// segment; a readmission ends the degraded window.
			s.probationRetest(l, endNS)
		}
		s.flows.refresh(s.mesh, endNS)
		s.maybeSnapshotWarm(l)
		if reason == BoundaryHalt {
			s.finishLane(l)
		}
		return nil
	}

	seg := &Segment{
		Seq:      l.segSeq,
		Hart:     l.hart,
		Start:    l.segStart,
		End:      *state,
		Entries:  l.entries,
		Insts:    l.segInsts,
		LogBytes: l.segBytes,
		LogLines: l.segLines,
		Reason:   reason,
		StartNS:  startNS,
		EndNS:    endNS,
	}
	if s.cfg.HashMode {
		seg.Digest = l.rcu.Digest()
	}
	l.segSeq++
	l.res.CheckedInsts += seg.Insts
	l.res.LogBytes += uint64(seg.LogBytes)
	l.res.LogLines += uint64(seg.LogLines)
	s.metrics.SegmentsChecked++
	s.metrics.InstsChecked += seg.Insts

	if l.chunk != nil {
		s.chunkAppend(l, seg)
	} else {
		s.dispatch(l, ck, seg)
	}
	s.flows.refresh(s.mesh, endNS)
	s.maybeSnapshotWarm(l)
	if reason == BoundaryHalt {
		s.finishLane(l)
	}
	return nil
}

// maybeSnapshotWarm records the warmup-boundary counters once the lane
// has executed its warmup budget.
func (s *System) maybeSnapshotWarm(l *lane) {
	if l.warmed || l.proc.w.WarmupInsts == 0 || l.executed < l.proc.w.WarmupInsts {
		return
	}
	// Checker statistics for segments dispatched during warmup belong to
	// the warmup window: flush any pending replay chunk and join any
	// pending checks before snapshotting.
	s.flushChunk(l)
	s.forceAll(l)
	l.warmed = true
	w := warmSnapshot{
		timeNS:       l.main.TimeNS(),
		insts:        l.executed,
		segments:     l.res.Segments,
		checked:      l.res.CheckedInsts,
		unchecked:    l.res.UncheckedInsts,
		stallNS:      l.res.StallNS,
		checkpointNS: l.res.CheckpointNS,
		logBytes:     l.res.LogBytes,
		logLines:     l.res.LogLines,
		recovery:     l.res.Recovery,
		degSegments:  l.res.DegradedSegments,
		degInsts:     l.res.DegradedInsts,
		degNS:        l.res.DegradedNS,
	}
	if l.alloc != nil {
		for _, ck := range l.alloc.Checkers() {
			w.ckBusyNS = append(w.ckBusyNS, ck.BusyNS)
			w.ckInsts = append(w.ckInsts, ck.Insts)
			w.ckSegments = append(w.ckSegments, ck.Segments)
		}
	}
	l.warm = w
}

// lslCapacityLines returns the log capacity for a segment on ck: the
// checker's repurposed L1 data cache, or the dedicated SRAM of the
// prior-work baselines. A nil ck (a strategy that defers checker
// acquisition past segment close, e.g. chunk replay) sizes segments by
// the pool's first checker — the volume one LSL$ fill would hold.
func (s *System) lslCapacityLines(l *lane, ck *Checker) int {
	if s.cfg.DedicatedLSLBytes > 0 {
		return s.cfg.DedicatedLSLBytes / LineBytes
	}
	if ck == nil {
		ck = l.alloc.Checkers()[0]
	}
	return ck.Core.Config().L1D.SizeBytes / LineBytes
}

func (l *lane) beginSegment(state *emu.ArchState, capacityLines int, timeoutInsts uint64) {
	l.segStart = *state
	l.entries = l.entries[:0]
	l.ops = l.ops[:0]
	l.segInsts = 0
	l.segBytes = 0
	l.segLines = 0
	l.counter.TimeoutInsts = timeoutInsts
	l.counter.Reset(capacityLines)
}

// accountEffect applies the per-instruction segment protocol for one
// committed effect on lane l — execution counters, LSL logging, hash
// absorption, and the boundary decision. Timing consumption happens
// just before this call.
//
//paralint:hotpath
func (s *System) accountEffect(l *lane, eff *emu.Effect, budget int64, resumeAtNS float64) BoundaryReason {
	l.executed++
	l.segInsts++
	l.sinceIRQ++

	pushed := 0
	if l.segChecked {
		if entry, ok := EntryFromEffectArena(eff, &l.ops); ok {
			//paralint:allow(arena append: entries/ops are pre-sized per segment)
			l.entries = append(l.entries, entry)
			pushed = l.lspu.Append(entry)
			l.segLines += pushed
			l.segBytes += entry.SizeBytes(s.cfg.HashMode)
			if s.cfg.HashMode {
				for i := 0; i < eff.NMem; i++ {
					m := eff.Mem[i]
					l.rcu.AbsorbVerification(MemRec{
						Addr: m.Addr, Size: m.Size,
						Data: m.Data, Load: m.Kind == emu.MemLoad,
					})
				}
			}
		}
	}

	switch {
	case eff.Halted:
		return BoundaryHalt
	case budget > 0 && l.executed >= budget:
		return BoundaryHalt
	case !l.warmed && l.proc.w.WarmupInsts > 0 && l.executed >= l.proc.w.WarmupInsts:
		return BoundaryInterrupt // snapshot at a checkpoint boundary
	case s.cfg.InterruptIntervalInsts > 0 && l.sinceIRQ >= s.cfg.InterruptIntervalInsts:
		l.sinceIRQ = 0
		return BoundaryInterrupt
	case !l.segChecked && resumeAtNS <= math.MaxFloat64 && l.main.TimeNS() >= resumeAtNS:
		// resumeAtNS is +Inf unless a checker frees up; testing that
		// first skips TimeNS's division on every unchecked instruction.
		return BoundaryInterrupt // resume checking at a fresh checkpoint
	default:
		return l.counter.Tick(pushed)
	}
}

func (s *System) finishLane(l *lane) {
	if l.done {
		return
	}
	// Flush a tail replay chunk before reading the lane's statistics; a
	// flush may stall the main core, which belongs in the lane's
	// reported time.
	s.flushChunk(l)
	l.done = true
	l.res.Insts = uint64(l.executed)
	l.res.TimeNS = l.main.TimeNS()
	if l.warmed {
		l.res.Insts -= uint64(l.warm.insts)
		l.res.TimeNS -= l.warm.timeNS
		l.res.Segments -= l.warm.segments
		l.res.CheckedInsts -= l.warm.checked
		l.res.UncheckedInsts -= l.warm.unchecked
		l.res.StallNS -= l.warm.stallNS
		l.res.CheckpointNS -= l.warm.checkpointNS
		l.res.LogBytes -= l.warm.logBytes
		l.res.LogLines -= l.warm.logLines
		l.res.Recovery.sub(l.warm.recovery)
		l.res.DegradedSegments -= l.warm.degSegments
		l.res.DegradedInsts -= l.warm.degInsts
		l.res.DegradedNS -= l.warm.degNS
	}
	l.res.MainBusyNS = l.res.TimeNS - l.res.StallNS
}

func (s *System) collect() *Result {
	// Join every outstanding check before reading any statistic it may
	// still be buffering (checker stats, LLC contention samples).
	for _, l := range s.lanes {
		s.forceAll(l)
	}
	// Joins also record the verdicts a recorded stream replays, so
	// publication must follow the join sweep.
	if s.cfg.Spec != nil {
		s.publishSpec()
	}
	r := &Result{MaxLinkUtilisation: s.mesh.MaxUtilisation(), Maintenance: s.tracker}
	if s.llcExtraN > 0 {
		r.AvgLLCExtraNS = s.llcExtraSum / float64(s.llcExtraN)
	}
	for _, l := range s.lanes {
		s.finishLane(l)
		r.Lanes = append(r.Lanes, l.res)

		issued := l.main.IssueCounts()
		for c := range issued {
			s.metrics.FUIssueMain[c] += issued[c]
		}
		if l.alloc != nil {
			// Pool-utilization denominator: this lane's wall clock times
			// its pool size, in integer nanoseconds.
			wall := l.main.TimeNS()
			s.metrics.CheckWindowNS += uint64(wall+0.5) * uint64(len(l.alloc.Checkers()))
			s.metrics.ProbationEntries += l.alloc.Probations()
			for _, c := range l.alloc.Checkers() {
				s.metrics.CheckBusyNS += uint64(c.BusyNS + 0.5)
				ckIssued := c.Core.IssueCounts()
				for cl := range ckIssued {
					s.metrics.FUIssueChecker[cl] += ckIssued[cl]
				}
			}
		}

		var cks []CheckerResult
		if l.alloc != nil {
			for i, c := range l.alloc.Checkers() {
				cr := CheckerResult{
					ID:       c.ID,
					CoreName: c.Core.Config().Name,
					FreqGHz:  c.FreqGHz,
					BusyNS:   c.BusyNS,
					Insts:    c.Insts,
					Segments: c.Segments,
					State:    c.State,
					Offenses: c.Offenses,
				}
				if l.warmed && i < len(l.warm.ckBusyNS) {
					cr.BusyNS -= l.warm.ckBusyNS[i]
					cr.Insts -= l.warm.ckInsts[i]
					cr.Segments -= l.warm.ckSegments[i]
				}
				cks = append(cks, cr)
			}
		}
		r.CheckersByLane = append(r.CheckersByLane, cks)
	}
	r.Metrics = s.metrics
	return r
}

// traceSegment emits one completed checkpoint interval into the run's
// trace ring (no-op without -trace). Lane index is the thread row.
func (s *System) traceSegment(l *lane, startNS, endNS float64) {
	if s.cfg.Trace == nil {
		return
	}
	name := fmt.Sprintf("seg %d", l.res.Segments-1)
	s.cfg.Trace.Emit(obs.CatSegment, name, s.tracePID, uint64(l.idx), startNS, endNS-startNS,
		map[string]string{
			"lane":    l.name,
			"insts":   fmt.Sprint(l.segInsts),
			"checked": fmt.Sprint(l.segChecked),
		})
}

// traceCheck emits one completed segment verification. Checker rows sit
// above the lane rows: tid = 100 + lane*64 + checker.
func (s *System) traceCheck(l *lane, ck *Checker, seg *Segment, startNS, durNS float64) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace.Emit(obs.CatCheck, fmt.Sprintf("check seg %d", seg.Seq),
		s.tracePID, uint64(100+l.idx*64+ck.ID), startNS, durNS,
		map[string]string{
			"lane":    l.name,
			"checker": fmt.Sprint(ck.ID),
		})
}

// Run builds and runs a system in one call. When a replayed stream
// fails the continuity check, the whole system is rebuilt and rerun
// without the SpecCache — the check turns any stream defect into
// wall-clock cost, never a result difference. A configuration with an
// interceptor is the exception: the aborted run has already advanced
// the injectors' state, which only the caller can rebuild, so Run
// returns ErrSpecDiverged and the caller reruns with fresh injectors.
// Each system's caches are released for reuse once its run returns
// (System.release).
func Run(cfg Config, workloads []Workload) (*Result, error) {
	s, err := NewSystem(cfg, workloads)
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	s.release()
	if err != nil && cfg.Spec != nil && errors.Is(err, ErrSpecDiverged) {
		if cfg.CheckerInterceptor != nil || cfg.MainInterceptor != nil {
			return nil, err
		}
		cfg.Spec = nil
		if s, err = NewSystem(cfg, workloads); err != nil {
			return nil, err
		}
		res, err = s.Run()
		s.release()
	}
	return res, err
}

// release hands every core (cpu.Core.Release) and the LLC back for reuse
// by a later NewSystem. Run calls it once s.Run has returned: every
// check has been joined (or, after an error, the system is discarded),
// and the Result holds no cache or predictor, so nothing reads them again.
func (s *System) release() {
	for _, l := range s.lanes {
		l.main.Release()
		if l.alloc != nil {
			for _, ck := range l.alloc.Checkers() {
				ck.Core.Release()
			}
		}
	}
	s.l3.Release()
	s.l3 = nil
}
