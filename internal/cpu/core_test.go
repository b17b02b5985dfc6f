package cpu

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// runOn executes prog functionally and streams the effects through a core
// model, returning the core.
func runOn(t *testing.T, cfg Config, freq float64, mode Mode, prog *isa.Program, limit int64) *Core {
	t.Helper()
	core := MustNewCore(cfg, freq, mode)
	_, err := emu.RunProgram(prog, limit, func(_ int, e *emu.Effect) error {
		core.Consume(e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// ilpProgram builds a loop of independent adds: lots of ILP.
func ilpProgram(iters int64) *isa.Program {
	b := asm.New("ilp")
	b.Li(20, 0)
	b.Li(21, iters)
	b.Label("loop")
	for r := isa.Reg(5); r < 13; r++ {
		b.Addi(r, r, 1)
	}
	b.Addi(20, 20, 1)
	b.Blt(20, 21, "loop")
	b.Halt()
	return b.MustBuild()
}

// fdivProgram builds a loop dominated by dependent FP divides.
func fdivProgram(iters int64) *isa.Program {
	b := asm.New("fdiv")
	da := b.Float64(1e30)
	db := b.Float64(1.0001)
	b.Li(5, int64(isa.DefaultDataBase))
	b.Fld(1, 5, int64(da))
	b.Fld(2, 5, int64(db))
	b.Li(20, 0)
	b.Li(21, iters)
	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.Fdiv(1, 1, 2)
	}
	b.Addi(20, 20, 1)
	b.Blt(20, 21, "loop")
	b.Halt()
	return b.MustBuild()
}

// pointerChase builds a memory-latency-bound loop over a large ring: one
// cache line per node, visited in a scrambled permutation so successive
// loads are dependent and spread across sets.
func pointerChase(nodes int, iters int64) *isa.Program {
	b := asm.New("chase")
	const stride = 64
	start := b.Reserve(nodes * stride)
	for i := 0; i < nodes; i++ {
		next := (i*7919 + 1) % nodes
		addr := isa.DefaultDataBase + start + uint64(next*stride)
		b.SetWord64(start+uint64(i*stride), addr)
	}
	b.Li(5, int64(isa.DefaultDataBase+start))
	b.Li(20, 0)
	b.Li(21, iters)
	b.Label("loop")
	b.Ld(8, 5, 5, 0)
	b.Addi(20, 20, 1)
	b.Blt(20, 21, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestX2FasterThanA510OnILP(t *testing.T) {
	prog := ilpProgram(2000)
	x2 := runOn(t, X2(), 3.0, ModeMain, prog, 0)
	a510 := runOn(t, A510(), 2.0, ModeMain, prog, 0)
	if x2.IPC() <= a510.IPC() {
		t.Errorf("X2 IPC %.2f <= A510 IPC %.2f on ILP workload", x2.IPC(), a510.IPC())
	}
	if x2.IPC() < 2.5 {
		t.Errorf("X2 IPC %.2f too low for pure-ILP loop", x2.IPC())
	}
	if a510.IPC() > 3.01 {
		t.Errorf("A510 IPC %.2f exceeds its width", a510.IPC())
	}
}

func TestScalarCoreIPCBounded(t *testing.T) {
	prog := ilpProgram(1000)
	a35 := runOn(t, A35(), 1.0, ModeMain, prog, 0)
	if a35.IPC() > 1.01 {
		t.Errorf("scalar core IPC %.2f > 1", a35.IPC())
	}
}

func TestFdivGapBetweenBigAndLittle(t *testing.T) {
	// The bwaves effect: the A510's 22-cycle unpipelined FDIV makes the
	// little core disproportionately slower on divide-heavy code than on
	// integer code (paper section VII-A).
	fp := fdivProgram(500)
	ints := ilpProgram(500)

	x2fp := runOn(t, X2(), 3.0, ModeMain, fp, 0)
	a5fp := runOn(t, A510(), 2.0, ModeMain, fp, 0)
	x2i := runOn(t, X2(), 3.0, ModeMain, ints, 0)
	a5i := runOn(t, A510(), 2.0, ModeMain, ints, 0)

	fpGap := a5fp.TimeNS() / x2fp.TimeNS()
	intGap := a5i.TimeNS() / x2i.TimeNS()
	if fpGap <= intGap {
		t.Errorf("fdiv gap %.2f <= int gap %.2f; little core should suffer more on fdiv", fpGap, intGap)
	}
}

func TestCheckerModeFasterOnMemoryBound(t *testing.T) {
	// Checker loads come from the LSL$ (always L1-hit), so a checker
	// should be much faster than a main core on a pointer chase — the
	// effect that lets 2 A510s keep up with an X2 on GAP (fig. 9).
	prog := pointerChase(16384, 30000)
	main := runOn(t, A510(), 2.0, ModeMain, prog, 0)
	checker := runOn(t, A510(), 2.0, ModeChecker, prog, 0)
	if checker.Cycles() >= main.Cycles()*0.6 {
		t.Errorf("checker cycles %.0f not << main cycles %.0f on memory-bound code",
			checker.Cycles(), main.Cycles())
	}
}

func TestFrequencyScalesTime(t *testing.T) {
	prog := ilpProgram(1000)
	full := runOn(t, A510(), 2.0, ModeMain, prog, 0)
	half := runOn(t, A510(), 1.0, ModeMain, prog, 0)
	ratio := half.TimeNS() / full.TimeNS()
	// Compute-bound: halving frequency should roughly double time.
	if ratio < 1.7 || ratio > 2.1 {
		t.Errorf("half-frequency time ratio %.2f, want ~2 for compute-bound code", ratio)
	}
}

func TestMispredictsSlowExecution(t *testing.T) {
	// Data-dependent branches on random data vs the same loop with a
	// fixed direction.
	build := func(random bool) *isa.Program {
		b := asm.New("br")
		b.Li(20, 0)
		b.Li(21, 3000)
		b.Label("loop")
		if random {
			b.Rand(5)
			b.Andi(5, 5, 1)
		} else {
			b.Li(5, 0)
		}
		b.Beq(5, isa.Zero, "even")
		b.Addi(6, 6, 1)
		b.Jmp("join")
		b.Label("even")
		b.Addi(7, 7, 1)
		b.Label("join")
		b.Addi(20, 20, 1)
		b.Blt(20, 21, "loop")
		b.Halt()
		return b.MustBuild()
	}
	pred := runOn(t, X2(), 3.0, ModeMain, build(false), 0)
	rand := runOn(t, X2(), 3.0, ModeMain, build(true), 0)
	if rand.BP.Stats.MispredictRate() <= pred.BP.Stats.MispredictRate() {
		t.Error("random branches not mispredicting more")
	}
	if rand.Cycles() <= pred.Cycles() {
		t.Error("mispredicts not costing cycles")
	}
}

func TestStallAdvancesClock(t *testing.T) {
	prog := ilpProgram(100)
	c := runOn(t, X2(), 3.0, ModeMain, prog, 0)
	before := c.Cycles()
	c.Stall(1000)
	if c.Cycles() < before+1000 {
		t.Errorf("stall did not advance clock: %.0f -> %.0f", before, c.Cycles())
	}
	c2 := MustNewCore(X2(), 3.0, ModeMain)
	c2.StallNS(100)
	if c2.Cycles() < 299 {
		t.Errorf("StallNS(100) at 3GHz = %.0f cycles, want ~300", c2.Cycles())
	}
}

func TestAdvanceToMonotonic(t *testing.T) {
	c := MustNewCore(A510(), 2.0, ModeChecker)
	c.AdvanceTo(500)
	if c.Cycles() != 500 {
		t.Errorf("AdvanceTo: cycles = %.0f", c.Cycles())
	}
	c.AdvanceTo(100) // must not move backwards
	if c.Cycles() != 500 {
		t.Error("AdvanceTo moved clock backwards")
	}
}

func TestNewCoreRejectsBadArgs(t *testing.T) {
	if _, err := NewCore(X2(), 5.0, ModeMain); err == nil {
		t.Error("want error for over-nominal frequency")
	}
	if _, err := NewCore(X2(), 3.0, ModeInvalid); err == nil {
		t.Error("want error for invalid mode")
	}
	bad := X2()
	bad.ROB = 0
	if _, err := NewCore(bad, 3.0, ModeMain); err == nil {
		t.Error("want error for OoO core without ROB")
	}
}

func TestConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{X2(), A510(), A35()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestOoOOverlapsCacheMisses(t *testing.T) {
	// Independent loads to distinct lines should overlap on the X2 (MLP)
	// but serialise on a dependent chain.
	independent := func() *isa.Program {
		b := asm.New("ind")
		b.Reserve(1 << 20)
		b.Li(5, int64(isa.DefaultDataBase))
		b.Li(20, 0)
		b.Li(21, 200)
		b.Label("loop")
		for i := int64(0); i < 4; i++ {
			b.Ld(8, isa.Reg(6+i), 5, i*4096)
		}
		b.Addi(5, 5, 4*4096)
		b.Addi(20, 20, 1)
		b.Blt(20, 21, "loop")
		b.Halt()
		return b.MustBuild()
	}()
	chase := pointerChase(32768, 40000)

	ind := runOn(t, X2(), 3.0, ModeMain, independent, 0)
	dep := runOn(t, X2(), 3.0, ModeMain, chase, 0)
	// Per-miss cost should be far lower with independent misses.
	indPerInst := ind.Cycles() / float64(ind.Insts())
	depPerInst := dep.Cycles() / float64(dep.Insts())
	if indPerInst >= depPerInst {
		t.Errorf("independent misses (%.1f cyc/inst) not cheaper than dependent (%.1f)",
			indPerInst, depPerInst)
	}
}

func TestPauseCoversWallTimeCheaply(t *testing.T) {
	// A spin loop with PAUSE covers far more cycles per instruction than
	// one without: that is the point of the spin-wait hint.
	build := func(pause bool) *isa.Program {
		b := asm.New("spin")
		b.Li(20, 0)
		b.Li(21, 500)
		b.Label("loop")
		if pause {
			b.Pause()
		}
		b.Addi(20, 20, 1)
		b.Blt(20, 21, "loop")
		b.Halt()
		return b.MustBuild()
	}
	plain := runOn(t, X2(), 3.0, ModeMain, build(false), 0)
	paused := runOn(t, X2(), 3.0, ModeMain, build(true), 0)
	cppPlain := plain.Cycles() / float64(plain.Insts())
	cppPause := paused.Cycles() / float64(paused.Insts())
	if cppPause < 8*cppPlain {
		t.Errorf("PAUSE cycles/inst %.1f not >> plain %.1f", cppPause, cppPlain)
	}
}

func TestCheckerLSLFasterThanL1D(t *testing.T) {
	// Checker loads come from the direct-indexed LSL$: cheaper than a
	// tagged L1D hit on the same dependent-load chain.
	prog := pointerChase(256, 5000) // fits in L1D: every main load hits
	main := runOn(t, X2(), 3.0, ModeMain, prog, 0)
	checker := runOn(t, X2(), 3.0, ModeChecker, prog, 0)
	if checker.Cycles() >= main.Cycles() {
		t.Errorf("checker %.0f cycles not faster than L1-hitting main %.0f", checker.Cycles(), main.Cycles())
	}
}

func TestSetMode(t *testing.T) {
	c := MustNewCore(A510(), 2.0, ModeMain)
	if c.Mode() != ModeMain {
		t.Fatal("mode not main")
	}
	c.SetMode(ModeChecker)
	if c.Mode() != ModeChecker {
		t.Fatal("mode switch failed")
	}
}

func TestSWPOccupiesLoadAndStoreSide(t *testing.T) {
	// Atomic swaps generate both a load and a store; a SWP-heavy loop
	// must be slower than a load-only loop of the same length.
	build := func(atomic bool) *isa.Program {
		b := asm.New("at")
		b.Reserve(4096)
		b.Li(5, int64(isa.DefaultDataBase))
		b.Li(20, 0)
		b.Li(21, 2000)
		b.Label("loop")
		if atomic {
			b.Swp(6, 5, 7)
		} else {
			b.Ld(8, 6, 5, 0)
		}
		b.Addi(20, 20, 1)
		b.Blt(20, 21, "loop")
		b.Halt()
		return b.MustBuild()
	}
	loads := runOn(t, A510(), 2.0, ModeMain, build(false), 0)
	swps := runOn(t, A510(), 2.0, ModeMain, build(true), 0)
	if swps.Cycles() < loads.Cycles() {
		t.Errorf("SWP loop (%.0f) faster than load loop (%.0f)", swps.Cycles(), loads.Cycles())
	}
}

func TestInOrderStallsOnUnreadySource(t *testing.T) {
	// Dependent long-latency chain: the in-order core must approach
	// latency-bound cycles; an independent stream must not.
	dep := fdivProgram(200)
	a510dep := runOn(t, A510(), 2.0, ModeMain, dep, 0)
	perInst := a510dep.Cycles() / float64(a510dep.Insts())
	// 4 dependent 22-cycle divides per ~7-instruction iteration.
	if perInst < 8 {
		t.Errorf("dependent fdiv chain %.1f cyc/inst on A510, want latency-bound (>= 8)", perInst)
	}
}

// TestCoreReleaseDetaches: Release hands back and detaches the caches
// and the branch unit, and a second Release recycles nothing twice.
func TestCoreReleaseDetaches(t *testing.T) {
	c := MustNewCore(X2(), 2.8, ModeMain)
	c.Release()
	c.Release()
	if c.BP != nil || c.Hier.L1D != nil {
		t.Error("Release left the branch unit or L1D attached")
	}
}

// TestAllocFUMatchesFirstMinimumScan checks allocFU against the
// reference it replaced: scan an unsorted pool for its first minimum,
// start at max(earliest, minimum), and overwrite that unit with
// start+InitInterval. Over random (class, earliest) sequences on the
// X2 (sorted OoO pools), A510 and A35 (in-order cursor; their issue
// times never decrease) FU tables, every start time and every pool
// multiset must match.
func TestAllocFUMatchesFirstMinimumScan(t *testing.T) {
	for _, cfg := range []Config{X2(), A510(), A35()} {
		t.Run(cfg.Name, func(t *testing.T) {
			c := MustNewCore(cfg, 0, ModeMain)
			var classes []isa.Class
			ref := make(map[isa.Class][]float64)
			for cl := isa.Class(0); int(cl) < isa.NumClasses; cl++ {
				if fu, ok := cfg.FUs[cl]; ok {
					classes = append(classes, cl)
					ref[cl] = make([]float64, fu.Count)
				}
			}
			rng := rand.New(rand.NewSource(int64(len(cfg.Name))))
			earliest := 0.0
			for step := 0; step < 20000; step++ {
				cl := classes[rng.Intn(len(classes))]
				if cfg.OoO {
					// Integer and half-cycle times collide often, so
					// ties between units are exercised.
					earliest = float64(rng.Intn(400)) / 2
				} else {
					earliest += float64(rng.Intn(3)) / 2
				}
				pool, fu := ref[cl], cfg.FUs[cl]
				best := 0
				for i := 1; i < len(pool); i++ {
					if pool[i] < pool[best] {
						best = i
					}
				}
				want := earliest
				if pool[best] > want {
					want = pool[best]
				}
				pool[best] = want + float64(fu.InitInterval)

				got, lat := c.allocFU(cl, earliest)
				if got != want || lat != fu.Latency {
					t.Fatalf("step %d, class %v, earliest %v: start %v latency %d, want %v and %d", step, cl, earliest, got, lat, want, fu.Latency)
				}
				have := make([]float64, len(pool))
				for i := range have {
					have[i] = math.Float64frombits(c.fuFree[cl][i])
				}
				wantPool := append([]float64(nil), pool...)
				sort.Float64s(have)
				sort.Float64s(wantPool)
				if !slices.Equal(have, wantPool) {
					t.Fatalf("step %d, class %v: pool %v, want multiset %v", step, cl, have, wantPool)
				}
			}
		})
	}
}
