package core

import (
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/noc"
)

// mixedProgram builds a long-running loop with a realistic mix: memory
// streaming, arithmetic, FP, branches and occasional non-repeatables.
func mixedProgram(iters int64) *isa.Program {
	b := asm.New("mixed")
	buf := b.Reserve(64 << 10)
	b.Li(5, int64(isa.DefaultDataBase+buf))
	b.Li(20, 0)
	b.Li(21, iters)
	b.Li(22, 64<<10-8)
	b.Label("loop")
	b.Andi(6, 20, 64<<10/8-1)
	b.Slli(6, 6, 3)
	b.Add(7, 5, 6)
	b.Ld(8, 8, 7, 0)
	b.Addi(8, 8, 3)
	b.St(8, 8, 7, 0)
	b.Fcvtif(1, 8)
	b.Fmul(2, 1, 1)
	b.Andi(9, 8, 7)
	b.Beq(9, isa.Zero, "skip")
	b.Xor(10, 10, 8)
	b.Label("skip")
	b.Addi(20, 20, 1)
	b.Blt(20, 21, "loop")
	b.Halt()
	return b.MustBuild()
}

func a510Checkers(n int, freq float64) CheckerSpec {
	return CheckerSpec{CPU: cpu.A510(), FreqGHz: freq, Count: n}
}

func x2Checkers(n int, freq float64) CheckerSpec {
	return CheckerSpec{CPU: cpu.X2(), FreqGHz: freq, Count: n}
}

func TestFullCoverageCleanRun(t *testing.T) {
	cfg := DefaultConfig(a510Checkers(4, 2.0))
	res, err := Run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(20000)}})
	if err != nil {
		t.Fatal(err)
	}
	lane := res.Lanes[0]
	if lane.Detections != 0 {
		t.Fatalf("clean run raised %d detections: %v", lane.Detections, lane.SampleMismatches)
	}
	if got := lane.Coverage(); got != 1.0 {
		t.Errorf("full-coverage mode covered %.3f, want 1.0", got)
	}
	if lane.Segments < 2 {
		t.Errorf("only %d segments", lane.Segments)
	}
	if lane.Insts == 0 || lane.TimeNS <= 0 {
		t.Errorf("degenerate result %+v", lane)
	}
	// Every checked instruction must have been verified by some checker.
	var ckInsts uint64
	for _, ck := range res.CheckersByLane[0] {
		ckInsts += ck.Insts
	}
	if ckInsts != lane.CheckedInsts {
		t.Errorf("checkers verified %d insts, main checked %d", ckInsts, lane.CheckedInsts)
	}
}

func TestSlowdownOrdering(t *testing.T) {
	// Baseline (no checkers) <= fast checkers <= deliberately starved
	// single slow checker.
	prog := mixedProgram(20000)
	run := func(cfg Config) float64 {
		res, err := Run(cfg, []Workload{{Name: "m", Prog: prog}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Lanes[0].TimeNS
	}
	baseCfg := DefaultConfig()
	baseCfg.Checkers = nil
	base := run(baseCfg)

	fast := run(DefaultConfig(x2Checkers(1, 3.0)))

	slowCfg := DefaultConfig(CheckerSpec{CPU: cpu.A35(), FreqGHz: 0.5, Count: 1})
	slow := run(slowCfg)

	if base > fast*1.001 {
		t.Errorf("baseline %.0f slower than checked %.0f", base, fast)
	}
	if slow <= fast {
		t.Errorf("starved config %.0f not slower than fast config %.0f", slow, fast)
	}
	if slow < base*1.5 {
		t.Errorf("one A35@0.5GHz checking an X2@3GHz should stall heavily: %.2fx", slow/base)
	}
}

func TestOpportunisticNeverStalls(t *testing.T) {
	prog := mixedProgram(20000)
	cfg := DefaultConfig(CheckerSpec{CPU: cpu.A35(), FreqGHz: 0.5, Count: 1})
	cfg.Mode = ModeOpportunistic
	res, err := Run(cfg, []Workload{{Name: "m", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	lane := res.Lanes[0]
	if lane.StallNS != 0 {
		t.Errorf("opportunistic mode stalled %.0f ns", lane.StallNS)
	}
	cov := lane.Coverage()
	if cov <= 0 || cov >= 1 {
		t.Errorf("starved opportunistic coverage %.3f, want strictly partial", cov)
	}
	if lane.Detections != 0 {
		t.Error("clean opportunistic run detected errors")
	}
}

func TestOpportunisticFullCoverageWhenResourcesAmple(t *testing.T) {
	cfg := DefaultConfig(x2Checkers(1, 3.0))
	cfg.Mode = ModeOpportunistic
	res, err := Run(cfg, []Workload{{Name: "m", Prog: mixedProgram(20000)}})
	if err != nil {
		t.Fatal(err)
	}
	if cov := res.Lanes[0].Coverage(); cov < 0.95 {
		t.Errorf("homogeneous opportunistic coverage %.3f, want >= 0.95 (paper: ~98%%)", cov)
	}
}

func TestHashModeReducesTraffic(t *testing.T) {
	prog := mixedProgram(20000)
	plain := DefaultConfig(a510Checkers(4, 2.0))
	hash := DefaultConfig(a510Checkers(4, 2.0))
	hash.HashMode = true

	rp, err := Run(plain, []Workload{{Name: "m", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(hash, []Workload{{Name: "m", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	if rh.Lanes[0].Detections != 0 {
		t.Fatalf("hash mode clean run detected: %v", rh.Lanes[0].SampleMismatches)
	}
	if rh.Lanes[0].LogBytes*2 > rp.Lanes[0].LogBytes {
		t.Errorf("hash mode bytes %d not <= half of %d", rh.Lanes[0].LogBytes, rp.Lanes[0].LogBytes)
	}
}

func TestInterruptCheckpoints(t *testing.T) {
	cfg := DefaultConfig(x2Checkers(1, 3.0))
	cfg.InterruptIntervalInsts = 700 // force interrupt boundaries
	res, err := Run(cfg, []Workload{{Name: "m", Prog: mixedProgram(10000)}})
	if err != nil {
		t.Fatal(err)
	}
	lane := res.Lanes[0]
	if lane.Detections != 0 {
		t.Fatalf("interrupted run detected errors: %v", lane.SampleMismatches)
	}
	if lane.Segments < int(lane.Insts/700) {
		t.Errorf("segments %d too few for interrupt interval", lane.Segments)
	}
}

func TestDedicatedLSLMakesSmallerSegments(t *testing.T) {
	prog := mixedProgram(20000)
	big := DefaultConfig(x2Checkers(1, 3.0))
	small := DefaultConfig(x2Checkers(1, 3.0))
	small.DedicatedLSLBytes = 3 << 10 // prior work's 3KiB SRAM

	rb, err := Run(big, []Workload{{Name: "m", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(small, []Workload{{Name: "m", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Lanes[0].Segments <= rb.Lanes[0].Segments {
		t.Errorf("3KiB LSL segments %d not > 64KiB segments %d",
			rs.Lanes[0].Segments, rb.Lanes[0].Segments)
	}
	if rs.Lanes[0].Detections != 0 {
		t.Error("dedicated-LSL run detected errors")
	}
}

func TestMultiHartSharedMemoryChecked(t *testing.T) {
	// Two harts increment disjoint counters and exchange data through
	// shared memory via SWP; the log must make every segment replay
	// exactly (section IV-J).
	b := asm.New("par")
	shared := b.Word64(0)
	body := func(tag int64) {
		lbl := "loop" + string(rune('A'+tag))
		b.Entry()
		b.Li(5, int64(isa.DefaultDataBase+shared))
		b.Li(20, 0)
		b.Li(21, 2000)
		b.Label(lbl)
		b.Li(6, tag)
		b.Swp(7, 5, 6) // racy swaps between harts
		b.Add(8, 8, 7)
		b.Addi(20, 20, 1)
		b.Blt(20, 21, lbl)
		b.Halt()
	}
	body(1)
	body(2)
	prog := b.MustBuild()

	cfg := DefaultConfig(a510Checkers(2, 2.0))
	res, err := Run(cfg, []Workload{{Name: "par", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(res.Lanes))
	}
	for i, lane := range res.Lanes {
		if lane.Detections != 0 {
			t.Errorf("hart %d: race replay failed: %v", i, lane.SampleMismatches)
		}
		if lane.Coverage() != 1.0 {
			t.Errorf("hart %d coverage %.3f", i, lane.Coverage())
		}
	}
}

func TestCheckerFaultInjectionDetected(t *testing.T) {
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cfg.CheckerInterceptor = func(laneID, checkerID int) emu.Interceptor {
		if checkerID == 0 {
			return &stuckBitInterceptor{class: isa.ClassIntALU, bit: 17}
		}
		return nil
	}
	res, err := Run(cfg, []Workload{{Name: "m", Prog: mixedProgram(20000)}})
	if err != nil {
		t.Fatal(err)
	}
	lane := res.Lanes[0]
	if lane.Detections == 0 {
		t.Fatal("stuck-at fault on checker 0 never detected")
	}
	if lane.FirstDetectionInst <= 0 {
		t.Error("first-detection instruction not recorded")
	}
}

func TestMaxInstsBound(t *testing.T) {
	cfg := DefaultConfig(x2Checkers(1, 3.0))
	res, err := Run(cfg, []Workload{{Name: "m", Prog: mixedProgram(1 << 30), MaxInsts: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lanes[0].Insts != 5000 {
		t.Errorf("insts = %d, want 5000", res.Lanes[0].Insts)
	}
}

func TestLSLTrafficLoadsNoC(t *testing.T) {
	prog := mixedProgram(30000)
	on := DefaultConfig(x2Checkers(1, 3.0))
	on.NoC = noc.Slow()
	off := DefaultConfig(x2Checkers(1, 3.0))
	off.NoC = noc.Slow()
	off.LSLTrafficOnNoC = false

	ron, err := Run(on, []Workload{{Name: "m", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	roff, err := Run(off, []Workload{{Name: "m", Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	if ron.MaxLinkUtilisation <= roff.MaxLinkUtilisation {
		t.Errorf("LSL traffic on (%.3f) should load links more than off (%.3f)",
			ron.MaxLinkUtilisation, roff.MaxLinkUtilisation)
	}
}

// TestLLCRouteTablesFollowMeshLoad checks the cached LLC round trips
// against direct mesh queries: a refresh that moves the load shows in
// the next access, and a refresh too early for a rate changes nothing.
func TestLLCRouteTablesFollowMeshLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoC = noc.Slow()
	s, err := NewSystem(cfg, []Workload{{Name: "m", Prog: mixedProgram(10)}})
	if err != nil {
		t.Fatal(err)
	}
	pos := s.lanes[0].pos
	beyond := s.beyondFor(pos)
	const addr = 5 * 64
	slice := s.layout.LLCPos[(addr/64)%uint64(len(s.layout.LLCPos))]
	direct := func() (lat, queue float64) {
		lat = s.mesh.LatencyNS(pos, slice, 16) + s.mesh.LatencyNS(slice, pos, LineBytes+8) + cfg.L3HitNS
		queue = s.mesh.QueueingNS(pos, slice, 16) + s.mesh.QueueingNS(slice, pos, LineBytes+8)
		return lat, queue
	}
	access := func() (lat, queue float64) {
		s.llcExtraSum = 0
		lat = beyond(addr, false, false)
		return lat, s.llcExtraSum
	}
	beyond(addr, false, false) // bring the line into the LLC: later accesses hit

	idle, _ := access()
	if want, _ := direct(); idle != want {
		t.Fatalf("idle access %v ns, direct %v ns", idle, want)
	}

	s.flows.add(pos, slice, 1e6)
	s.flows.refresh(s.mesh, 1e5)
	lat, queue := access()
	wantLat, wantQueue := direct()
	if lat != wantLat || queue != wantQueue {
		t.Errorf("loaded access %v ns (queueing %v), direct %v ns (queueing %v)", lat, queue, wantLat, wantQueue)
	}
	if lat <= idle || queue <= 0 {
		t.Errorf("load did not raise latency: idle %v ns, loaded %v ns, queueing %v ns", idle, lat, queue)
	}

	gen := s.flows.gen
	s.flows.add(pos, slice, 1e9)
	s.flows.refresh(s.mesh, 999)
	if s.flows.gen != gen {
		t.Error("a refresh under 1000 ns moved the load generation")
	}
	if again, q := access(); again != lat || q != queue {
		t.Errorf("after an early refresh: %v ns (queueing %v), want %v ns (queueing %v)", again, q, lat, queue)
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(x2Checkers(1, 3.0))
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(x2Checkers(0, 3.0))
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero-count checkers")
	}
	bad2 := DefaultConfig(x2Checkers(1, 9.0))
	if err := bad2.Validate(); err == nil {
		t.Error("want error for over-nominal checker frequency")
	}
	bad3 := DefaultConfig(x2Checkers(1, 3.0))
	bad3.Mode = ModeInvalid
	if err := bad3.Validate(); err == nil {
		t.Error("want error for invalid mode")
	}
	if _, err := Run(good, nil); err == nil {
		t.Error("want error for no workloads")
	}
}

func TestAllocatorPrefersLittleCores(t *testing.T) {
	mk := func(cfg cpu.Config, f float64) *Checker {
		return &Checker{Core: cpu.MustNewCore(cfg, f, cpu.ModeChecker), FreqGHz: f}
	}
	big := mk(cpu.X2(), 3.0)
	little := mk(cpu.A510(), 2.0)
	a, err := NewAllocator([]*Checker{big, little})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.AcquireFree(0); got != little {
		t.Error("allocator did not prefer the little core")
	}
	little.FreeAtNS = 100
	if got := a.AcquireFree(0); got != big {
		t.Error("allocator did not fall back to the big core")
	}
	big.FreeAtNS = 50
	if got := a.AcquireFree(0); got != nil {
		t.Error("allocator returned a busy checker")
	}
	if got := a.EarliestFree(); got != big {
		t.Error("EarliestFree wrong")
	}
	if _, err := NewAllocator(nil); err == nil {
		t.Error("want error for empty pool")
	}
}
