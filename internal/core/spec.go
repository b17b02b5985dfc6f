package core

// Functional-stream memoisation: record a lane's instruction stream from
// the live segment loop, replay it in later runs by cursor.
//
// A lane's simulated outcome factors into two halves with a one-way
// dependency. The FUNCTIONAL half — the instruction stream and the
// loaded/stored values — is a pure function of (program, hart, seed,
// instruction budget): the emulator never reads a clock and never
// observes a checkpoint boundary. The TIMING half (main-core cycles,
// NoC flows, LLC occupancy, checker schedules) and everything that
// shapes boundaries (LSL capacity, the checkpoint timeout, the
// interrupt interval, hash mode, whether checking is on at all) consume
// the functional stream but cannot perturb it.
//
// A recording lane runs the ordinary runSegment loop and taps every
// committed effect: its outcome flags, its branch target when taken,
// its register result and its memory operations (record). The tap is
// sealed into an immutable recSeg at each segment close (seal).
// Reconstruction from a recording is exact for every Effect field the
// emulator sets (PC, Inst, Class, Dec, NextPC, Taken, Halted, WroteInt,
// WroteFP, Value, NonRepeat/NonRepeatVal and Mem[:NMem]), so a
// recording made under one configuration serves any other with the
// same stream key, and a replay lane rebuilds its own architectural
// state — PC and register file — from the stream as it goes.
//
// A replay run RE-CUTS its own segment boundaries: the same runSegment
// loop runs unmodified (checker acquisition, LSPU packing, counters,
// warmup/interrupt windows, hash digests) but draws its effects from a
// cursor over the recorded stream instead of the emulator. One stream
// recorded under full coverage serves opportunistic sweeps, hash-mode
// toggles, capacity sweeps and unchecked baselines — and vice versa. A
// per-main-geometry MicroTrace memoises the main core's private-cache
// hit levels and branch verdicts on top (cpu/microtrace.go), valid
// across re-cut boundaries because consume order is commit order,
// which is stream order.
//
// Because the replay lane's state is exact, its segments carry the
// real Start/End checkpoints, and a checker can verify them for real.
// A deferred-join (fault-free lockstep, pipeline.go) replay synthesises
// clean verdicts instead: a checked recording is published only if no
// check of the recording run detected (laneSpec.dirty). A lockstep
// replay with a checker-side fault injector or the recovery pipeline
// verifies every segment with CheckSegment under the checker's
// injector, exactly as a live run would, and never records: a checker
// fault cannot change the main core's stream, so the trial only takes
// its main-side effects from the recording.
//
// Safety: every recorded segment carries its entry architectural state,
// and a replay enters a segment only if its reconstructed state equals
// that entry state bit for bit (the same comparison the RCU applies);
// at the stream's end it must equal the recorded final state. The check
// thereby validates the recorded branch targets and register results
// too. On divergence the stream is evicted and the system reruns
// without the cache (ErrSpecDiverged), so a stream defect can cost
// time, never correctness.

import (
	"errors"
	"math"
	"sync"
	"unsafe"

	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/obs"
)

// ErrSpecDiverged reports that a replayed segment's entry state did not
// extend the committed predecessor. Run (the package-level wrapper)
// catches it and reruns the system without the SpecCache.
var ErrSpecDiverged = errors.New("core: replayed segment diverged from committed state")

// DefaultSpecCacheBytes bounds a SpecCache's recorded-stream memory.
const DefaultSpecCacheBytes = 1 << 30

// Per-instruction bits in recSeg.flags: the outcome flags, the
// non-repeat marker, the instruction's memory-op count in two bits
// (emu.MaxMemOps is 2), and specValOp, which marks a register result
// equal to the instruction's first memory record's data (a load's
// value, a RAND result) and therefore not stored in vals.
const (
	specTaken     uint8 = 1 << 0
	specWroteInt  uint8 = 1 << 1
	specWroteFP   uint8 = 1 << 2
	specHalted    uint8 = 1 << 3
	specNonRepeat uint8 = 1 << 4
	specOpsShift        = 5
	specOpsMask   uint8 = 3 << specOpsShift
	specValOp     uint8 = 1 << 7
)

// streamKey identifies one lane's functional stream: exactly the
// inputs the instruction SEQUENCE depends on, and nothing that merely
// moves segment boundaries (capacity, timeout, interrupt interval,
// hash mode, checking) — replay runs re-cut boundaries live.
type streamKey struct {
	prog *isa.Program
	hart int
	// seed is zero for a program without RAND: the seed reaches the
	// emulator only through MainEnv.Rand, so such a program's stream is
	// shared across seeds.
	seed uint64
	// maxInsts and warmupInsts bound the stream's length (the budget is
	// their sum); interrupts and checkpoints have no architectural
	// effect, so nothing else reaches the emulator.
	maxInsts    int64
	warmupInsts int64
}

// recSeg is one recorded segment: everything needed to reconstruct the
// committed effect sequence and the architectural state along it.
type recSeg struct {
	// start is the architectural state before the segment's first
	// instruction; its PC is that instruction's PC.
	start emu.ArchState
	// flags[i] holds instruction i's bits (specTaken...). The other
	// slices are consumed in commit order: targets holds the NextPC of
	// each taken instruction (every other instruction falls through to
	// PC+1, the only NextPC the emulator sets otherwise), vals the
	// register result of each instruction that wrote one, unless marked
	// specValOp, and ops the memory records of every instruction, flat
	// (a non-repeat instruction's single record carries its value). All
	// four have exact-size private backing, never aliased by later
	// segments.
	flags   []uint8
	targets []uint32
	vals    []uint64
	ops     []MemRec
}

// memBytes is the segment's retained size: its header plus the four
// slices' contents.
func (rs *recSeg) memBytes() int {
	return int(unsafe.Sizeof(*rs)) + len(rs.flags) + 4*len(rs.targets) +
		8*len(rs.vals) + int(unsafe.Sizeof(MemRec{}))*len(rs.ops)
}

// recStream is every recorded segment of one functional stream, plus
// the per-main-geometry micro traces recorded over it.
type recStream struct {
	segs []*recSeg
	// end is the architectural state after the stream's last
	// instruction, which a replay must reach exactly.
	end      emu.ArchState
	complete bool
	// recording marks an in-flight exclusive recording claim.
	recording bool
	bytes     int
	// micro maps a main-core geometry key to a complete MicroTrace over
	// this stream; microRec marks in-flight recording claims.
	micro    map[string]*cpu.MicroTrace
	microRec map[string]bool
}

// SpecCache memoises functional streams and micro traces across runs.
// One cache is shared by every run of an experiment engine; all state
// is guarded by mu, so concurrent runs may record and replay freely.
type SpecCache struct {
	mu       sync.Mutex
	streams  map[streamKey]*recStream
	bytes    int
	maxBytes int
	// seeded memoises, per program, whether it executes RAND (seedFor).
	seeded map[*isa.Program]bool

	stats obs.SpecStats

	// testCorrupt, when non-nil, mutates segments as a replay lane
	// enters them — the forced-divergence hook for fallback tests.
	testCorrupt func(laneIdx, seq int, rs *recSeg)
}

// NewSpecCache returns an empty cache with the default byte budget.
func NewSpecCache() *SpecCache {
	return &SpecCache{
		streams:  make(map[streamKey]*recStream),
		maxBytes: DefaultSpecCacheBytes,
		seeded:   make(map[*isa.Program]bool),
	}
}

// seedFor returns the seed component of prog's stream keys: seed for a
// program containing RAND, zero otherwise (streamKey.seed). The scan
// runs once per program.
func (c *SpecCache) seedFor(prog *isa.Program, seed uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	uses, ok := c.seeded[prog]
	if !ok {
		for _, in := range prog.Insts {
			if in.Op == isa.OpRAND {
				uses = true
				break
			}
		}
		c.seeded[prog] = uses
	}
	if !uses {
		return 0
	}
	return seed
}

// Stats returns a snapshot of the cache's counters.
func (c *SpecCache) Stats() obs.SpecSnapshot { return c.stats.Snapshot() }

// Streams returns how many streams the cache holds, complete or still
// being recorded.
func (c *SpecCache) Streams() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.streams)
}

// DropProgram forgets everything recorded over prog: every stream keyed
// by it, with the micro traces recorded over those streams, and its
// seedFor entry, which would otherwise keep prog reachable. The caller
// guarantees no run of prog is in flight; a later run of prog records
// afresh.
func (c *SpecCache) DropProgram(prog *isa.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, st := range c.streams {
		if key.prog != prog {
			continue
		}
		if st.complete {
			c.bytes -= st.bytes
		}
		delete(c.streams, key)
	}
	delete(c.seeded, prog)
}

// Claim outcomes.
const (
	claimNone = iota
	claimRecord
	claimReplay
)

// claimStream resolves how a lane uses the cache: replay a complete
// stream, record a fresh one (exclusive, only if the caller's
// configuration is record-eligible — canRecord),
// or run live unrecorded. The protocol never blocks: a stream being
// recorded elsewhere, or a cache over budget, degrades to live
// execution.
func (c *SpecCache) claimStream(key streamKey, canRecord bool) (*recStream, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.streams[key]
	if st != nil && st.complete {
		c.stats.StreamsReplayed.Add(1)
		return st, claimReplay
	}
	if !canRecord {
		return nil, claimNone
	}
	if st == nil {
		if c.bytes >= c.maxBytes {
			return nil, claimNone
		}
		st = &recStream{}
		c.streams[key] = st
	}
	if st.recording {
		return nil, claimNone
	}
	st.recording = true
	return st, claimRecord
}

// releaseStream abandons a recording claim (divergence, run error).
// Only the recording lane itself can hold claims on an incomplete
// stream, so dropping the entry is safe.
func (c *SpecCache) releaseStream(key streamKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.streams[key]; st != nil && !st.complete {
		delete(c.streams, key)
	}
}

// publishStream completes a recording, making the stream replayable.
func (c *SpecCache) publishStream(key streamKey, segs []*recSeg, end emu.ArchState) {
	n := 0
	for _, rs := range segs {
		n += rs.memBytes()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.streams[key]
	if st == nil || st.complete {
		return
	}
	st.segs = segs
	st.end = end
	st.bytes = n
	st.recording = false
	st.complete = true
	c.bytes += n
	c.stats.StreamsRecorded.Add(1)
}

// evictStream drops a stream (replay divergence hygiene): a stream
// that failed the continuity check must not keep serving replays.
func (c *SpecCache) evictStream(key streamKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.streams[key]; st != nil {
		if st.complete {
			c.bytes -= st.bytes
		}
		delete(c.streams, key)
	}
}

// claimMicro resolves a lane's micro-trace use for one main geometry:
// replay a complete trace, record a fresh one (exclusive), or neither.
func (c *SpecCache) claimMicro(st *recStream, geom string) (tr *cpu.MicroTrace, replay, record bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := st.micro[geom]; t != nil {
		c.stats.MicroReplayed.Add(1)
		return t, true, false
	}
	if st.microRec[geom] {
		return nil, false, false
	}
	if st.microRec == nil {
		st.microRec = make(map[string]bool)
	}
	st.microRec[geom] = true
	return nil, false, true
}

// releaseMicro abandons a micro recording claim.
func (c *SpecCache) releaseMicro(st *recStream, geom string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(st.microRec, geom)
}

// publishMicro completes a micro recording.
func (c *SpecCache) publishMicro(st *recStream, geom string, tr *cpu.MicroTrace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st.micro == nil {
		st.micro = make(map[string]*cpu.MicroTrace)
	}
	st.micro[geom] = tr
	delete(st.microRec, geom)
	c.stats.MicroRecorded.Add(1)
}

// laneSpec is one lane's SpecCache state for the current run.
type laneSpec struct {
	mode   int // claimRecord or claimReplay
	key    streamKey
	stream *recStream
	// dirty marks a recording whose run detected a mismatch in some
	// check: it is released rather than published (publishSpec).
	dirty bool
	// sawEnd marks that the whole stream ran through the lane, so
	// collection may publish what was recorded over it.
	sawEnd bool

	// Replay state: cur walks the recorded stream in place of the
	// emulator (specNext); segCur is cur's value at the current
	// segment's start, snapshotted so a deferred-join check can re-walk
	// exactly the effects the segment consumed (runCheck). state is the
	// lane's architectural state, advanced by every replayed effect: it
	// stands in for the never-stepped hart's, supplies the segments'
	// Start/End checkpoints, and must equal every recorded segment's
	// entry state.
	cur       specCursor
	segCur    specCursor
	state     emu.ArchState
	delivered int

	// Record state: the tap's scratch (flags, targets, vals, ops),
	// reused across segments and sealed into segs at every segment
	// close; end is the hart's state once the whole stream has run.
	flags   []uint8
	targets []uint32
	vals    []uint64
	ops     []MemRec
	segs    []*recSeg
	end     emu.ArchState

	// Micro-trace recording in flight (nil when not claimed).
	microRec  *cpu.MicroTrace
	microGeom string
}

// record is the recording lane's per-effect tap on the live loop: the
// effect's flags, its target when taken, its register result and its
// memory operations. Memory operations are captured on unchecked
// segments too: replay rebuilds every effect from them.
func (sp *laneSpec) record(eff *emu.Effect) {
	fl := uint8(0)
	if eff.Taken {
		fl |= specTaken
		sp.targets = append(sp.targets, uint32(eff.NextPC))
	}
	if eff.WroteInt {
		fl |= specWroteInt
	}
	if eff.WroteFP {
		fl |= specWroteFP
	}
	if eff.Halted {
		fl |= specHalted
	}
	o := len(sp.ops)
	if eff.NonRepeat {
		fl |= specNonRepeat | 1<<specOpsShift
		sp.ops = append(sp.ops, MemRec{Data: eff.NonRepeatVal})
	} else {
		fl |= uint8(eff.NMem) << specOpsShift
		for i := 0; i < eff.NMem; i++ {
			m := &eff.Mem[i]
			sp.ops = append(sp.ops, MemRec{Addr: m.Addr, Data: m.Data, Size: m.Size, Load: m.Kind == emu.MemLoad})
		}
	}
	if eff.WroteInt || eff.WroteFP {
		if len(sp.ops) > o && sp.ops[o].Data == eff.Value {
			fl |= specValOp
		} else {
			sp.vals = append(sp.vals, eff.Value)
		}
	}
	sp.flags = append(sp.flags, fl)
}

// seal closes the tap's current segment, entered at start, into an
// immutable recSeg with exact-size private copies of the scratch, which
// the next segment reuses.
func (sp *laneSpec) seal(start emu.ArchState) {
	sp.segs = append(sp.segs, &recSeg{
		start:   start,
		flags:   append([]uint8(nil), sp.flags...),
		targets: append([]uint32(nil), sp.targets...),
		vals:    append([]uint64(nil), sp.vals...),
		ops:     append([]MemRec(nil), sp.ops...),
	})
	sp.flags = sp.flags[:0]
	sp.targets = sp.targets[:0]
	sp.vals = sp.vals[:0]
	sp.ops = sp.ops[:0]
}

// laneSpecEligible reports what lane l may do with the SpecCache:
// replay a recorded stream, and additionally record a fresh one.
//
// Replay requires only that the lane's instruction sequence is a pure
// function of the streamKey inputs, and that its checks, if any, either
// may be synthesised or run for real. A main-side interceptor mutates
// the main's own execution (common-mode faults), divergent mode keeps
// a private memory image built from the live main memory, and
// multi-hart processes interleave through shared memory under timing
// control: those lanes run live. Checker-side faults and the recovery
// pipeline cannot change the main's stream — checkers replay its log —
// so a lockstep lane with either replays too, without deferred joins:
// every segment, re-replay, forensic round and probation shadow check
// runs CheckSegment for real under the checker's injector. The other non-pipelined strategies (chunk replay, relaxed
// start) run live. Boundary shape does NOT matter for replay — the
// live runSegment loop re-cuts boundaries over the cursor, so
// opportunistic mode, sampling and non-uniform pool capacities all
// replay fine.
//
// Recording is stricter: checked recorders need deferred joins (no
// injector, no recovery) and full coverage, so that every segment of
// the stream is verified fault-free before publication.
func (s *System) laneSpecEligible(l *lane) (replay, record bool) {
	if s.cfg.MainInterceptor != nil || len(l.proc.mach.Harts) != 1 || l.div != nil {
		return false, false
	}
	if !s.checking() {
		return true, true
	}
	if !s.pipelined {
		return s.cfg.Strategy == StrategyLockstep, false
	}
	return true, s.cfg.Mode == ModeFullCoverage
}

// streamKeyFor builds lane l's stream key.
func (s *System) streamKeyFor(l *lane) streamKey {
	return streamKey{
		prog:        l.proc.w.Prog,
		hart:        l.hart,
		seed:        s.cfg.Spec.seedFor(l.proc.w.Prog, s.cfg.Seed),
		maxInsts:    l.proc.w.MaxInsts,
		warmupInsts: l.proc.w.WarmupInsts,
	}
}

// initSpec decides, per lane, whether this run replays a recorded
// stream, records a fresh one from the live loop, or runs the loop
// plain (l.spec stays nil).
func (s *System) initSpec() {
	c := s.cfg.Spec
	for _, l := range s.lanes {
		replayOK, recordOK := s.laneSpecEligible(l)
		if !replayOK {
			continue
		}
		key := s.streamKeyFor(l)
		st, mode := c.claimStream(key, recordOK)
		if mode == claimNone {
			continue
		}
		sp := &laneSpec{mode: mode, key: key, stream: st}
		if mode == claimReplay {
			sp.cur = specCursor{dec: l.proc.w.Prog.Decoded(), segs: st.segs}
			sp.state = l.proc.mach.Harts[l.hart].State
		}
		// Micro-trace claim for this lane's main-core geometry. Traces
		// exist only on complete streams, so a record-mode lane can only
		// ever record one (its main consumes live), and a replay lane
		// records one the first time a geometry replays this stream.
		mc := l.main.Config()
		geom := cpu.GeometryKey(&mc)
		if tr, replay, record := c.claimMicro(st, geom); replay {
			l.main.SetMicroReplay(tr)
		} else if record {
			sp.microRec = &cpu.MicroTrace{}
			sp.microGeom = geom
			l.main.SetMicroRecord(sp.microRec)
		}
		l.spec = sp
	}
}

// specDiverged handles a failed continuity check on a replay lane: the
// broken stream is evicted so later runs re-record instead of
// re-aborting, and the run aborts with ErrSpecDiverged, which the Run
// wrapper turns into a rerun without the cache.
func (s *System) specDiverged(l *lane) error {
	c := s.cfg.Spec
	c.stats.SpecAborts.Add(1)
	c.evictStream(l.spec.key)
	s.releaseLaneSpec(l)
	l.spec = nil
	return ErrSpecDiverged
}

// releaseLaneSpec abandons the lane's cache claims and detaches the
// main core's micro-trace hooks.
func (s *System) releaseLaneSpec(l *lane) {
	sp := l.spec
	c := s.cfg.Spec
	if sp.mode == claimRecord {
		c.releaseStream(sp.key)
	}
	if sp.microRec != nil {
		c.releaseMicro(sp.stream, sp.microGeom)
		sp.microRec = nil
	}
	l.main.SetMicroRecord(nil)
}

// abortSpec drops every cache claim of a failed run.
func (s *System) abortSpec() {
	for _, l := range s.lanes {
		if l.spec == nil {
			continue
		}
		s.releaseLaneSpec(l)
		l.spec = nil
	}
}

// publishSpec publishes completed recordings at collection time. A
// recording is released instead if a check of its run detected
// (laneSpec.dirty): deferred-join replay runs synthesise clean verdicts
// instead of re-verifying, which is sound precisely because unclean
// streams never enter the cache. Only deferred-join runs record while
// checking, and those carry no injector, so a dirty recording means a
// simulator defect — degrade to live runs.
func (s *System) publishSpec() {
	c := s.cfg.Spec
	for _, l := range s.lanes {
		sp := l.spec
		if sp == nil || !sp.sawEnd {
			continue
		}
		if sp.mode == claimRecord {
			if sp.dirty {
				c.releaseStream(sp.key)
			} else {
				c.publishStream(sp.key, sp.segs, sp.end)
			}
		}
		if sp.microRec != nil {
			c.publishMicro(sp.stream, sp.microGeom, sp.microRec)
			sp.microRec = nil
		}
	}
}

// effIter reconstructs the committed effect sequence from a recorded
// segment. Reconstruction is bit-equivalent to the effects the live
// emulator produced, for every field the emulator sets: PC/Inst/Class/
// Dec come from the decoded program at the tracked PC (the segment's
// entry PC, then each effect's NextPC), NextPC is the recorded target
// of a taken instruction and PC+1 otherwise, Taken/WroteInt/WroteFP/
// Halted/NonRepeat come from the recorded flags, Value from the
// recorded results (or the first memory record, under specValOp), and
// the memory operations from the flat records.
type effIter struct {
	dec []isa.DecInst
	rs  *recSeg
	pc  uint64
	// i indexes flags; ti, vi and oi index targets, vals and ops.
	i, ti, vi, oi int
}

func newEffIter(dec []isa.DecInst, rs *recSeg) effIter {
	return effIter{dec: dec, rs: rs, pc: rs.start.PC}
}

func (it *effIter) next(eff *emu.Effect) bool {
	rs := it.rs
	i := it.i
	if i >= len(rs.flags) {
		return false
	}
	// The cursor fields live in memory across calls; working on locals
	// and storing them once keeps the per-instruction dependency chain
	// short.
	pc, oi := it.pc, it.oi
	fl := rs.flags[i]
	d := &it.dec[pc]
	// Field-wise assignment instead of a struct literal: zeroing the
	// whole Effect (dominated by its Mem array) per instruction is
	// measurable on the replay hot path. Every field a consumer guards
	// reads behind (NMem, NonRepeat) is reset here; stale Mem bytes
	// beyond NMem are never read.
	eff.PC = pc
	eff.Inst = d.Inst
	eff.Class = d.Class
	eff.Dec = d
	eff.Taken = fl&specTaken != 0
	eff.WroteInt = fl&specWroteInt != 0
	eff.WroteFP = fl&specWroteFP != 0
	eff.Halted = fl&specHalted != 0
	eff.NonRepeat = fl&specNonRepeat != 0
	eff.NonRepeatVal = 0
	next := pc + 1
	if fl&specTaken != 0 {
		next = uint64(rs.targets[it.ti])
		it.ti++
	}
	eff.NextPC = next
	var v uint64
	if fl&specValOp != 0 {
		v = rs.ops[oi].Data
	} else if fl&(specWroteInt|specWroteFP) != 0 {
		v = rs.vals[it.vi]
		it.vi++
	}
	eff.Value = v
	eff.NMem = 0
	n := int(fl&specOpsMask) >> specOpsShift
	if n != 0 {
		if fl&specNonRepeat != 0 {
			eff.NonRepeatVal = rs.ops[oi].Data
		} else {
			ops := rs.ops[oi : oi+n]
			for j := range ops {
				op := &ops[j]
				kind := emu.MemStore
				if op.Load {
					kind = emu.MemLoad
				}
				eff.Mem[j] = emu.MemOp{Kind: kind, Addr: op.Addr, Size: op.Size, Data: op.Data}
			}
			eff.NMem = n
		}
	}
	it.oi = oi + n
	it.pc = next
	it.i = i + 1
	return true
}

// specCursor walks a recorded stream's flat effect sequence, crossing
// recorded-segment joints transparently — the replay run's own segment
// boundaries are cut by the live runSegment loop, independent of where
// the recording run happened to cut its checkpoints. A plain value
// copy snapshots a position: a deferred-join check re-walks its
// segment's effects from such a snapshot, hook-free (recorded segments
// are immutable once published).
type specCursor struct {
	dec  []isa.DecInst
	segs []*recSeg
	k    int
	it   effIter
}

// segDone reports that the cursor has left its current recorded
// segment (or has not entered one yet).
func (cu *specCursor) segDone() bool {
	return cu.it.rs == nil || cu.it.i >= len(cu.it.rs.flags)
}

// done reports stream exhaustion.
func (cu *specCursor) done() bool {
	return cu.segDone() && cu.k >= len(cu.segs)
}

// next reconstructs the next committed effect, entering the next
// recorded segment as needed. Hook-free and continuity-blind: the
// lane-side step with divergence checks is System.specNext.
func (cu *specCursor) next(eff *emu.Effect) bool {
	for cu.segDone() {
		if cu.k >= len(cu.segs) {
			return false
		}
		cu.it = newEffIter(cu.dec, cu.segs[cu.k])
		cu.k++
	}
	return cu.it.next(eff)
}

// specNext is runSegment's functional step on a replay lane: it
// reconstructs the next committed effect from the recorded stream
// instead of stepping the emulator, and applies it to the lane's
// architectural state exactly as the emulator would. Entering a
// recorded segment fires the continuity check — the reconstructed
// state must equal the segment's entry state bit for bit — and the
// forced-divergence test hook. A broken stream is evicted and the run
// ends in ErrSpecDiverged, which the Run wrapper turns into a rerun
// without the cache.
func (s *System) specNext(l *lane, eff *emu.Effect) (bool, error) {
	sp := l.spec
	cu := &sp.cur
	for cu.segDone() {
		if cu.k >= len(cu.segs) {
			return false, nil
		}
		rs := cu.segs[cu.k]
		if hook := s.cfg.Spec.testCorrupt; hook != nil {
			hook(l.idx, sp.delivered, rs)
		}
		sp.delivered++
		if !archEqual(&rs.start, &sp.state) {
			return false, s.specDiverged(l)
		}
		s.cfg.Spec.stats.SegmentsReplayed.Add(1)
		cu.it = newEffIter(cu.dec, rs)
		cu.k++
	}
	cu.it.next(eff)
	st := &sp.state
	if eff.WroteInt {
		if rd := eff.Inst.Rd; rd != isa.Zero {
			st.X[rd] = eff.Value
		}
	} else if eff.WroteFP {
		st.F[eff.Inst.Rd] = math.Float64frombits(eff.Value)
	}
	st.PC = eff.NextPC
	return true, nil
}
