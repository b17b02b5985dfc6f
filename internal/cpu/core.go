package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"paraverser/internal/branch"
	"paraverser/internal/cachesim"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// Mode selects how the timing model treats memory: a main core accesses
// its real data-cache hierarchy; a checker core's loads, atomics and
// non-repeatable reads are served from the LSL$ at L1 hit latency and its
// stores only access the load-store comparator, so a checker never
// generates data-side traffic (section VII-A, "Instruction Fetch"). A
// divergent checker additionally maintains a private memory image to
// cross-check logged load data against, so its loads and stores pay the
// real data-hierarchy cost like a main core — the price of the extra
// coverage divergent checking buys.
type Mode uint8

// Core modes. Enums start at one.
const (
	ModeInvalid Mode = iota
	ModeMain
	ModeChecker
	ModeCheckerDivergent
)

// Core is the timing model of one core. Create with NewCore; not safe for
// concurrent use.
type Core struct {
	cfg  Config
	mode Mode

	// FreqGHz is the current DVFS operating point.
	FreqGHz float64

	Hier *cachesim.Hierarchy
	BP   *branch.Unit

	// All times below are in core cycles.
	nextFetch  float64
	fetchSlots int
	redirected bool
	lastLine   uint64
	haveLine   bool
	// fetchShift is log2(L1I.LineBytes) when it is a power of two (every
	// shipped geometry), -1 otherwise: the fetch-line computation runs
	// once per simulated instruction and the division costs.
	fetchShift int32
	regInt     [isa.NumIntRegs]float64
	regFP      [isa.NumFPRegs]float64
	rob        ring
	lq         ring
	sq         ring
	mshr       ring
	// fuFree and fuCfg are dense per-FU-class tables indexed directly by
	// isa.Class (the map form cost two hash lookups per instruction on
	// the hottest path in the simulator). fuFree is a fixed-size array
	// rather than a slice per class: allocFU runs once per simulated
	// instruction, and the slice form paid a header load plus bounds
	// checks per scan (Config.Validate caps Count at maxFUPool). Each
	// entry is a unit's next free time (cycles) as IEEE-754 bits: times
	// are finite and >= 0, where bit order is numeric order, so allocFU
	// compares them as integers, which compiles to conditional moves
	// (float min/max lower to a longer NaN-safe sequence). An OoO core
	// keeps each pool sorted ascending.
	fuFree [isa.NumClasses][maxFUPool]uint64
	fuN    [isa.NumClasses]int32
	// fuNext is the in-order fast path's round-robin cursor per class:
	// the index of the oldest-assigned pool entry (see allocFU).
	fuNext      [isa.NumClasses]int32
	fuCfg       [isa.NumClasses]FU
	lastIssue   float64
	issueSlots  int
	lastCommit  float64
	commitSlots int

	// Micro-trace hooks (microtrace.go). recTrace, when non-nil, records
	// every private-cache hit level and branch verdict; curTrace, when
	// non-nil, replays them instead of consulting tags and predictor.
	recTrace *MicroTrace
	curTrace *MicroTrace
	curPos   int

	insts  uint64
	cycles float64 // commit time of the most recent instruction

	// issued counts instructions per FU class — the only per-instruction
	// metric in the system. A dense array increment keeps Consume
	// allocation-free; obs.RunMetrics picks the counts up at collect.
	issued [isa.NumClasses]uint64
}

// ring is a fixed-size ring of completion times used for occupancy
// limits: writing a new entry requires the displaced (oldest) entry's
// time to have passed.
type ring struct {
	buf []float64
	idx int
}

func newRing(n int) ring {
	if n <= 0 {
		n = 1
	}
	return ring{buf: make([]float64, n)}
}

// push inserts t and returns the constraint time: the event can begin no
// earlier than the displaced entry.
func (r *ring) push(t float64) float64 {
	oldest := r.buf[r.idx]
	r.buf[r.idx] = t
	r.idx++
	if r.idx == len(r.buf) {
		r.idx = 0
	}
	return oldest
}

// peek returns the displaced-entry constraint without inserting.
func (r *ring) peek() float64 { return r.buf[r.idx] }

// NewCore builds a core with fresh caches and predictor state. freqGHz
// of zero uses the configuration's nominal clock.
func NewCore(cfg Config, freqGHz float64, mode Mode) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mode != ModeMain && mode != ModeChecker && mode != ModeCheckerDivergent {
		return nil, fmt.Errorf("cpu %q: invalid mode %d", cfg.Name, mode)
	}
	if freqGHz == 0 {
		freqGHz = cfg.NominalGHz
	}
	if freqGHz <= 0 || freqGHz > cfg.NominalGHz+1e-9 {
		return nil, fmt.Errorf("cpu %q: frequency %.2fGHz outside (0, %.2f]", cfg.Name, freqGHz, cfg.NominalGHz)
	}
	c := &Core{
		cfg:     cfg,
		mode:    mode,
		FreqGHz: freqGHz,
		Hier: &cachesim.Hierarchy{
			L1I: cachesim.MustNew(cfg.L1I),
			L1D: cachesim.MustNew(cfg.L1D),
			L2:  cachesim.MustNew(cfg.L2),
		},
	}
	c.BP = branch.NewCoreUnit(cfg.BigPredictor)
	for class, fu := range cfg.FUs {
		c.fuN[class] = int32(fu.Count)
		c.fuCfg[class] = fu
	}
	c.fetchShift = -1
	if lb := cfg.L1I.LineBytes; lb&(lb-1) == 0 {
		c.fetchShift = int32(bits.TrailingZeros(uint(lb)))
	}
	rob := cfg.ROB
	if !cfg.OoO {
		rob = cfg.IQ
	}
	c.rob = newRing(rob)
	c.lq = newRing(cfg.LQ)
	c.sq = newRing(cfg.SQ)
	c.mshr = newRing(cfg.L1D.MSHRs)
	return c, nil
}

// MustNewCore is NewCore for static configurations.
func MustNewCore(cfg Config, freqGHz float64, mode Mode) *Core {
	c, err := NewCore(cfg, freqGHz, mode)
	if err != nil {
		panic(err)
	}
	return c
}

// Release hands the core's caches and branch unit back for reuse by a
// later NewCore and detaches them, so a use after release fails loudly.
func (c *Core) Release() {
	c.Hier.Release()
	if c.BP != nil {
		c.BP.Release()
		c.BP = nil
	}
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Mode returns the core's current mode.
func (c *Core) Mode() Mode { return c.mode }

// SetMode switches the core between main and checker duty (any core can
// serve as either, section IV). The pipeline state carries over; caches
// are managed by the caller (LSL reset etc.).
func (c *Core) SetMode(m Mode) { c.mode = m }

// Cycles returns the commit time of the most recently consumed
// instruction, in core cycles.
func (c *Core) Cycles() float64 { return c.cycles }

// TimeNS returns Cycles converted to nanoseconds at the current clock.
func (c *Core) TimeNS() float64 { return c.cycles / c.FreqGHz }

// Insts returns the number of instructions consumed.
func (c *Core) Insts() uint64 { return c.insts }

// IssueCounts returns the per-FU-class issue counters, indexed by
// isa.Class.
func (c *Core) IssueCounts() [isa.NumClasses]uint64 { return c.issued }

// IPC returns retired instructions per cycle.
func (c *Core) IPC() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.insts) / c.cycles
}

// Stall delays the core by the given number of cycles (checkpoint
// serialisation, full-coverage back-pressure).
func (c *Core) Stall(cycles float64) {
	if cycles <= 0 {
		return
	}
	base := c.cycles
	if c.nextFetch > base {
		base = c.nextFetch
	}
	c.nextFetch = base + cycles
	c.fetchSlots = 0
	if c.cycles < c.nextFetch {
		c.cycles = c.nextFetch
	}
}

// StallNS is Stall expressed in nanoseconds.
func (c *Core) StallNS(ns float64) { c.Stall(ns * c.FreqGHz) }

// FetchBubble inserts a front-end bubble of the given length without
// draining the out-of-order window: the cost is largely hidden by
// in-flight work. This models a register checkpoint taken at commit
// without delaying it (ParaVerser's RCU), in contrast to Stall, which
// serialises against the committed state (DSN18-style checkpointing).
func (c *Core) FetchBubble(cycles float64) {
	if cycles <= 0 {
		return
	}
	c.nextFetch += cycles
	c.fetchSlots = 0
}

// AdvanceTo moves the core's clock forward to at least the given cycle
// count (used when a checker sleeps waiting for work).
func (c *Core) AdvanceTo(cycle float64) {
	if cycle > c.nextFetch {
		c.nextFetch = cycle
		c.fetchSlots = 0
	}
	if cycle > c.cycles {
		c.cycles = cycle
	}
}

// srcReady returns the cycle when all source operands of the instruction
// are available, walking the predecoded operand descriptor.
//
//paralint:hotpath
func (c *Core) srcReady(d *isa.DecInst) float64 {
	// The &31 masks are no-ops (registers are always < 32, isa.Validate)
	// that let the compiler drop the bounds check on each scoreboard read.
	var t float64
	for i := uint8(0); i < d.NIntSrc; i++ {
		if v := c.regInt[d.IntSrc[i]&31]; v > t {
			t = v
		}
	}
	for i := uint8(0); i < d.NFPSrc; i++ {
		if v := c.regFP[d.FPSrc[i]&31]; v > t {
			t = v
		}
	}
	return t
}

// allocFU reserves the least-loaded functional unit from the
// (predecoded) FU class's pool, returning its start time given the
// earliest possible issue time.
//
// The unit taken is a minimum of the pool, and only the pool multiset
// reaches any timestamp: start is max(earliest, min), and the unit's
// entry becomes start+InitInterval. An OoO core keeps each pool sorted
// ascending, so pool[0] is the minimum, and one min/max pass drops it
// and inserts the new entry in order. That leaves the same multiset as
// overwriting the first minimum of an unsorted pool, without a branch
// on simulated time. In-order cores take an O(1) round-robin cursor
// instead, which selects the same minimum: with !OoO, issue is clamped
// to lastIssue (Consume) and so non-decreasing; the pool minimum is
// non-decreasing by construction; hence each assigned value
// start+InitInterval = max(issue, min)+II is non-decreasing, the pool
// always holds the last n assigned values, and the oldest-assigned
// entry — the cursor position — IS the minimum. Equal values make
// victim choice multiset-equivalent, so tie-breaks cannot diverge
// either.
//
//paralint:hotpath
func (c *Core) allocFU(fuClass isa.Class, earliest float64) (start float64, latency int) {
	pool := &c.fuFree[fuClass]
	fu := &c.fuCfg[fuClass]
	n := int(c.fuN[fuClass])
	if n > maxFUPool {
		n = maxFUPool // unreachable (Validate); lets the pass elide bounds checks
	}
	e := math.Float64bits(earliest)
	if c.cfg.OoO {
		start = math.Float64frombits(max(e, pool[0]))
		x := math.Float64bits(start + float64(fu.InitInterval))
		for i := 1; i < n; i++ {
			v := pool[i]
			pool[i-1] = min(v, x)
			x = max(v, x)
		}
		pool[(n-1)&(maxFUPool-1)] = x // n >= 1 (Validate)
		return start, fu.Latency
	}
	best := 0
	if n > 1 {
		// A single-unit pool (stores, dividers, every scalar-checker
		// class) is pool[0]; fuNext stays 0, which the cursor would
		// compute too.
		best = int(c.fuNext[fuClass]) & (maxFUPool - 1)
		next := best + 1
		if next >= n {
			next = 0
		}
		c.fuNext[fuClass] = int32(next)
	}
	start = math.Float64frombits(max(e, pool[best]))
	pool[best] = math.Float64bits(start + float64(fu.InitInterval))
	return start, fu.Latency
}

// pauseCycles is the front-end idle a spin-wait hint costs: spin loops
// cover wall time with few executed instructions.
const pauseCycles = 48

// Consume advances the timing model over one executed instruction.
//
//paralint:hotpath
func (c *Core) Consume(eff *emu.Effect) {
	d := eff.Dec
	if d == nil {
		// Hand-built effects (tests, tools) carry no predecode record;
		// derive one on the stack.
		tmp := isa.Predecode(eff.Inst)
		d = &tmp
	}
	in := eff.Inst
	class := eff.Class
	if in.Op == isa.OpPAUSE {
		c.FetchBubble(pauseCycles)
	}

	// --- fetch ---
	pcAddr := isa.PCToAddr(eff.PC)
	var lineAddr uint64
	if c.fetchShift >= 0 {
		lineAddr = pcAddr >> uint(c.fetchShift)
	} else {
		lineAddr = pcAddr / uint64(c.cfg.L1I.LineBytes)
	}
	if c.redirected || !c.haveLine || lineAddr != c.lastLine {
		var res cachesim.AccessResult
		if c.curTrace != nil {
			res = c.Hier.FetchAtLevel(pcAddr, int(c.microNext()))
		} else {
			res = c.Hier.Fetch(pcAddr)
			if c.recTrace != nil {
				c.recTrace.record(uint8(res.Level))
			}
		}
		if res.Level > 1 {
			// Miss: the front end stalls for the full fill latency.
			c.nextFetch += res.TotalCycles(c.FreqGHz)
			c.fetchSlots = 0
		}
		c.lastLine = lineAddr
		c.haveLine = true
		c.redirected = false
	}
	fetchAt := c.nextFetch
	c.fetchSlots++
	if c.fetchSlots >= c.cfg.FetchWidth {
		c.nextFetch++
		c.fetchSlots = 0
	}

	// --- dispatch ---
	dispatch := fetchAt + float64(c.cfg.FrontendDepth)
	if oldest := c.rob.peek(); oldest > dispatch {
		dispatch = oldest // window full: wait for the oldest to commit
	}

	// --- issue ---
	issue := dispatch
	if s := c.srcReady(d); s > issue {
		issue = s
	}
	if !c.cfg.OoO {
		// In-order issue: program order, width per cycle.
		if c.lastIssue > issue {
			issue = c.lastIssue
		}
		if issue == c.lastIssue {
			c.issueSlots++
			if c.issueSlots >= c.cfg.IssueWidth {
				issue++
				c.issueSlots = 0
			}
		} else {
			c.issueSlots = 1
		}
		c.lastIssue = issue
	}
	start, latency := c.allocFU(d.FUClass, issue)
	done := start + float64(latency)
	c.issued[d.FUClass]++

	// --- memory ---
	switch class {
	case isa.ClassLoad, isa.ClassAtomic, isa.ClassNonRepeat:
		done = c.loadDone(eff, start)
		if class != isa.ClassNonRepeat {
			if lqOld := c.lq.push(done); lqOld > start {
				// LQ occupancy pressure folds into completion.
				done += lqOld - start
			}
		}
	case isa.ClassStore:
		// Stores complete at commit via the write buffer; the cache
		// state is updated then. Occupancy tracked below.
	}

	// --- branch resolution ---
	if d.Flags&isa.DecBranch != 0 {
		resolveAt := done
		var correct bool
		if c.curTrace != nil {
			correct = c.microNext() != 0
		} else {
			correct = c.BP.Resolve(in.Op, eff.PC, eff.Taken, eff.NextPC)
			if c.recTrace != nil {
				b := uint8(0)
				if correct {
					b = 1
				}
				c.recTrace.record(b)
			}
		}
		if !correct {
			redirect := resolveAt + float64(c.cfg.FrontendDepth)
			if redirect > c.nextFetch {
				c.nextFetch = redirect
				c.fetchSlots = 0
			}
			c.redirected = true
		}
	} else if eff.Taken {
		// Taken non-branch cannot happen, but keep line tracking honest.
		c.redirected = true
	}

	// --- writeback ---
	if eff.WroteInt && in.Rd != isa.Zero {
		c.regInt[in.Rd] = done
	}
	if eff.WroteFP {
		c.regFP[in.Rd] = done
	}

	// --- commit ---
	commit := done
	if commit < c.lastCommit {
		commit = c.lastCommit
	}
	if commit == c.lastCommit {
		c.commitSlots++
		if c.commitSlots >= c.cfg.CommitWidth {
			commit++
			c.commitSlots = 0
		}
	} else {
		c.commitSlots = 1
	}
	c.lastCommit = commit

	if class == isa.ClassStore || class == isa.ClassAtomic {
		c.storeAtCommit(eff, commit)
	}

	c.rob.push(commit)
	c.insts++
	c.cycles = commit
}

// loadDone models the data access(es) of a load-class instruction and
// returns the completion time.
//
//paralint:hotpath
func (c *Core) loadDone(eff *emu.Effect, start float64) float64 {
	if c.mode == ModeChecker {
		// Checker loads are served from the LSL$: direct-indexed, no tag
		// comparison ("far simpler" than a CAM lookup, section IV-B), so
		// the hit is faster than a normal L1D access.
		return start + float64((c.cfg.L1D.HitCycles+1)/2)
	}
	// ModeCheckerDivergent falls through: its loads cross-check a private
	// memory image, so they pay the real hierarchy like a main core.
	if eff.Class == isa.ClassNonRepeat {
		// Timer/RNG reads: a system-register access, a few cycles.
		return start + 3
	}
	done := start
	for i := 0; i < eff.NMem; i++ {
		op := eff.Mem[i]
		if op.Kind != emu.MemLoad {
			continue
		}
		var res cachesim.AccessResult
		if c.curTrace != nil {
			res = c.Hier.DataAtLevel(op.Addr, false, int(c.microNext()))
		} else {
			res = c.Hier.Data(op.Addr, false)
			if c.recTrace != nil {
				c.recTrace.record(uint8(res.Level))
			}
		}
		lat := res.TotalCycles(c.FreqGHz)
		s := start
		if res.Level > 1 {
			// MSHR-bounded miss overlap.
			if oldest := c.mshr.push(s + lat); oldest > s {
				s = oldest
				c.mshr.buf[(c.mshr.idx+len(c.mshr.buf)-1)%len(c.mshr.buf)] = s + lat
			}
		}
		if d := s + lat; d > done {
			done = d
		}
	}
	return done
}

// storeAtCommit applies store-side cache effects at commit time.
//
//paralint:hotpath
func (c *Core) storeAtCommit(eff *emu.Effect, commit float64) {
	if c.mode == ModeChecker {
		// Checker stores only access the load-store comparator; there is
		// one comparator per load/store unit, so no extra cost
		// (section IV-E). A divergent checker commits every store to its
		// private image and falls through to the real store path.
		return
	}
	for i := 0; i < eff.NMem; i++ {
		op := eff.Mem[i]
		if op.Kind != emu.MemStore {
			continue
		}
		var res cachesim.AccessResult
		if c.curTrace != nil {
			res = c.Hier.DataAtLevel(op.Addr, true, int(c.microNext()))
		} else {
			res = c.Hier.Data(op.Addr, true)
			if c.recTrace != nil {
				c.recTrace.record(uint8(res.Level))
			}
		}
		if res.Level > 1 {
			// Write misses allocate via the MSHRs but do not stall
			// commit (write buffer); they do consume an MSHR slot.
			c.mshr.push(commit + res.TotalCycles(c.FreqGHz))
		}
		if oldest := c.sq.push(commit); oldest > commit {
			// SQ full: later stores (and thus commit) back up. Model by
			// pushing the commit horizon.
			c.lastCommit = oldest
		}
	}
}
