package core

import (
	"errors"
	"testing"
	"unsafe"

	"paraverser/internal/asm"
	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// checkSegmentFixture executes 2000 instructions of the mixed program
// and packages them as one verifiable segment.
func checkSegmentFixture(t *testing.T) (*isa.Program, *Segment) {
	t.Helper()
	prog := mixedProgram(10000)
	mach, err := emu.NewMachine(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	hart := mach.Harts[0]
	seg := &Segment{Hart: 0, Start: hart.State}
	var eff emu.Effect
	for seg.Insts < 2000 {
		if err := mach.StepHart(0, &eff); err != nil {
			t.Fatal(err)
		}
		seg.Insts++
		if e, ok := EntryFromEffect(&eff); ok {
			seg.Entries = append(seg.Entries, e)
		}
	}
	seg.End = hart.State
	return prog, seg
}

// runSpec runs cfg over ws and returns the flattened result string.
func runSpec(t *testing.T, cfg Config, ws []Workload) string {
	t.Helper()
	res, err := Run(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	return renderResult(res)
}

// TestSpecRecordReplayInvariance is the determinism contract of the
// SpecCache: with a cache attached, the recording run (a tap on the
// live loop) and every later replay run (stream served from the cache)
// must render byte-identically to the run without a cache, across
// strategies, operating modes, hash mode, interrupts, warmup and a pool
// small enough to stall. Configurations that cannot record replay a
// stream seeded by a full-coverage run over the same workloads; those
// the cache must decline (non-lockstep strategies) must leave it
// untouched.
func TestSpecRecordReplayInvariance(t *testing.T) {
	prog := mixedProgram(12000)
	type use int
	const (
		records  use = iota // the case's own first run records
		replays             // seeded by a full-coverage recording
		declines            // the cache is inert
	)
	cases := []struct {
		name string
		mut  func(*Config)
		use  use
	}{
		{"full-coverage-eager", func(c *Config) {}, records},
		{"full-coverage-late-wake", func(c *Config) { c.EagerWake = false }, records},
		{"hash-mode", func(c *Config) { c.HashMode = true }, records},
		{"no-checking", func(c *Config) { c.Checkers = nil }, records},
		{"irq-interval", func(c *Config) { c.InterruptIntervalInsts = 700 }, records},
		{"small-pool-stall", func(c *Config) {
			c.Checkers = []CheckerSpec{{CPU: cpu.A35(), FreqGHz: 0.5, Count: 1}}
		}, records},
		{"mixed-pool", func(c *Config) {
			c.Checkers = []CheckerSpec{
				{CPU: cpu.A510(), FreqGHz: 2.0, Count: 1},
				{CPU: cpu.A35(), FreqGHz: 1.0, Count: 1},
			}
		}, records},
		{"opportunistic", func(c *Config) { c.Mode = ModeOpportunistic }, replays},
		{"opportunistic-sampled", func(c *Config) {
			c.Mode = ModeOpportunistic
			c.SamplePeriod = 3
			c.Checkers = []CheckerSpec{{CPU: cpu.A35(), FreqGHz: 0.5, Count: 1}}
		}, replays},
		{"lockstep", func(c *Config) { c.Strategy = StrategyLockstep }, records},
		{"chunk-replay", func(c *Config) { c.Strategy = StrategyChunkReplay }, declines},
		{"relaxed", func(c *Config) { c.Strategy = StrategyRelaxed }, declines},
		{"divergent", func(c *Config) { c.Strategy = StrategyDivergent }, declines},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Both lanes warm up; m0 also stops at a budget, m1 runs to
			// its halt.
			ws := []Workload{
				{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
				{Name: "m1", Prog: prog, WarmupInsts: 1500},
			}
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			tc.mut(&cfg)
			base := runSpec(t, cfg, ws)

			cache := NewSpecCache()
			if tc.use == replays {
				seed := DefaultConfig(a510Checkers(2, 2.0))
				seed.Spec = cache
				runSpec(t, seed, ws)
			}
			cfg.Spec = cache
			for i := 0; i < 3; i++ {
				if got := runSpec(t, cfg, ws); got != base {
					t.Fatalf("cached run %d diverged from the run without a cache:\n--- base ---\n%s\n--- got ---\n%s", i, base, got)
				}
			}
			st := cache.Stats()
			if st.SpecAborts != 0 {
				t.Errorf("clean runs raised %d aborts", st.SpecAborts)
			}
			switch tc.use {
			case declines:
				if st.StreamsRecorded != 0 || st.StreamsReplayed != 0 {
					t.Errorf("cache not inert: recorded %d, replayed %d streams", st.StreamsRecorded, st.StreamsReplayed)
				}
			default:
				if st.StreamsRecorded == 0 {
					t.Error("no stream was recorded")
				}
				if st.StreamsReplayed == 0 {
					t.Error("no stream was replayed")
				}
			}
		})
	}
}

// TestSpecCacheOverBudgetRunsLive pins the byte budget: a cache that is
// already at its limit records nothing, and runs through it fall back to
// the live loop and render exactly as runs without a cache.
func TestSpecCacheOverBudgetRunsLive(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{
		{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
		{Name: "m1", Prog: prog, WarmupInsts: 1500},
	}
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	base := runSpec(t, cfg, ws)

	cache := NewSpecCache()
	cache.maxBytes = 0
	cfg.Spec = cache
	for i := 0; i < 2; i++ {
		if got := runSpec(t, cfg, ws); got != base {
			t.Fatalf("over-budget run %d diverged from the run without a cache:\n--- base ---\n%s\n--- got ---\n%s", i, base, got)
		}
	}
	if st := cache.Stats(); st.StreamsRecorded != 0 {
		t.Errorf("over-budget cache recorded %d streams, want 0", st.StreamsRecorded)
	}
}

// TestSpecTimeShardInvariance pins the SpecCache under concurrent use:
// the experiment engine hands one cache to all of its -j workers, so
// several runs may race to record the same stream while others replay
// it. Whether each of 1, 2 or 8 concurrent runs holds a fresh cache or
// shares one, every run must render byte-identically to the run
// without a cache, and the shared cache must end up replaying.
func TestSpecTimeShardInvariance(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{
		{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
		{Name: "m1", Prog: prog},
	}
	base := runSpec(t, DefaultConfig(a510Checkers(2, 2.0)), ws)

	shared := NewSpecCache()
	for _, workers := range []int{1, 2, 8} {
		for _, share := range []bool{false, true} {
			got, err := runConcurrently(workers, func() (*Result, error) {
				cfg := DefaultConfig(a510Checkers(2, 2.0))
				cfg.Spec = NewSpecCache()
				if share {
					cfg.Spec = shared
				}
				return Run(cfg, ws)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if g != base {
					t.Errorf("shared=%v, run %d of %d concurrent diverged from baseline", share, i, workers)
				}
			}
		}
	}
	st := shared.Stats()
	if st.StreamsReplayed == 0 {
		t.Error("shared cache never replayed a stream across concurrent runs")
	}
	if st.SpecAborts != 0 {
		t.Errorf("clean concurrent runs raised %d aborts", st.SpecAborts)
	}
}

// TestSpecCrossFrequencyStreamReuse exercises the cross-run memoization
// the cache exists for: runs differing only in timing-side parameters
// (main frequency here) share one recorded functional stream, and each
// still matches its own sequential baseline exactly.
func TestSpecCrossFrequencyStreamReuse(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000}}
	cache := NewSpecCache()
	for _, freq := range []float64{2.0, 1.25, 3.0} {
		cfg := DefaultConfig(a510Checkers(2, 2.0))
		cfg.MainFreqGHz = freq
		base := runSpec(t, cfg, ws)
		cfg.Spec = cache
		if got := runSpec(t, cfg, ws); got != base {
			t.Errorf("MainFreqGHz=%v: spec run diverged from its sequential baseline", freq)
		}
	}
	st := cache.Stats()
	if st.StreamsRecorded != 1 {
		t.Errorf("recorded %d streams across the frequency sweep, want 1 (timing changes must not split the stream)", st.StreamsRecorded)
	}
	if st.StreamsReplayed < 2 {
		t.Errorf("replayed %d streams, want >= 2 (the later frequencies must reuse the first recording)", st.StreamsReplayed)
	}
	if st.MicroReplayed < 2 {
		t.Errorf("replayed %d micro traces, want >= 2 (same main geometry at every frequency)", st.MicroReplayed)
	}
}

// TestSpecCrossConfigStreamReuse pins the payoff of the determinism
// factorization: the instruction sequence depends only on (program, hart,
// seed, budget, warmup), while checking configuration shapes segment
// boundaries — which replay re-cuts live. One stream recorded under
// full-coverage checking must therefore serve hash mode, opportunistic
// checking, a dedicated SRAM log and unchecked operation, each matching
// its own sequential baseline, without a second recording.
func TestSpecCrossConfigStreamReuse(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000}}

	cache := NewSpecCache()
	rec := DefaultConfig(a510Checkers(2, 2.0))
	recBase := runSpec(t, rec, ws)
	rec.Spec = cache
	if got := runSpec(t, rec, ws); got != recBase {
		t.Fatal("recording run diverged from its sequential baseline")
	}

	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"hash-mode", func(c *Config) { c.HashMode = true }},
		{"opportunistic", func(c *Config) { c.Mode = ModeOpportunistic }},
		{"opportunistic-sampled", func(c *Config) { c.Mode = ModeOpportunistic; c.SamplePeriod = 3 }},
		{"dedicated-lsl", func(c *Config) { c.DedicatedLSLBytes = 3 << 10 }},
		{"unchecked", func(c *Config) { c.Checkers = nil }},
	}
	for _, v := range variants {
		cfg := DefaultConfig(a510Checkers(2, 2.0))
		v.mut(&cfg)
		base := runSpec(t, cfg, ws)
		cfg.Spec = cache
		if got := runSpec(t, cfg, ws); got != base {
			t.Errorf("%s: replay from the full-coverage recording diverged from its sequential baseline", v.name)
		}
	}
	st := cache.Stats()
	if st.StreamsRecorded != 1 {
		t.Errorf("recorded %d streams across the config sweep, want 1 (boundary-shaping config must not split the stream)", st.StreamsRecorded)
	}
	if st.StreamsReplayed < uint64(len(variants)) {
		t.Errorf("replayed %d streams, want >= %d (every variant must reuse the one recording)", st.StreamsReplayed, len(variants))
	}
	if st.SpecAborts != 0 {
		t.Errorf("clean cross-config replays raised %d aborts", st.SpecAborts)
	}
}

// TestSpecReplayDivergenceFallsBack forces a continuity-check failure on
// a cached stream: the run must abort the replay, rerun without the cache,
// and still produce the baseline result; the broken stream must be
// evicted so the next run re-records rather than re-aborting.
func TestSpecReplayDivergenceFallsBack(t *testing.T) {
	prog := mixedProgram(12000)
	ws := []Workload{{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000}}
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	// Short interrupt interval: plenty of segments for mid-stream
	// corruption.
	cfg.InterruptIntervalInsts = 500
	base := runSpec(t, cfg, ws)

	cache := NewSpecCache()
	cfg.Spec = cache
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("clean record run diverged from baseline")
	}

	// Corrupt the third replayed segment's entry state: the replay must
	// escalate to the run-level rerun.
	corrupted := 0
	cache.testCorrupt = func(laneIdx, seq int, rs *recSeg) {
		if seq == 3 {
			corrupted++
			rs.start.X[5] ^= 1
		}
	}
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("corrupted replay did not fall back to the sequential result")
	}
	if corrupted == 0 {
		t.Fatal("corruption hook never fired; the stream has too few segments for this test")
	}
	if st := cache.Stats(); st.SpecAborts == 0 {
		t.Error("no abort was counted")
	}

	// The broken stream must be gone: a clean run re-records.
	cache.testCorrupt = nil
	before := cache.Stats().StreamsRecorded
	if got := runSpec(t, cfg, ws); got != base {
		t.Fatal("post-eviction run diverged from baseline")
	}
	if after := cache.Stats().StreamsRecorded; after != before+1 {
		t.Errorf("evicted stream was not re-recorded (recorded %d -> %d)", before, after)
	}
}

// TestCheckSegmentZeroAlloc pins the hot-path property the pipelined
// engine relies on: steady-state segment verification through a held
// CheckScratch performs zero heap allocations.
func TestCheckSegmentZeroAlloc(t *testing.T) {
	prog, seg := checkSegmentFixture(t)
	var cs CheckScratch
	allocs := testing.AllocsPerRun(20, func() {
		if res := cs.CheckSegment(prog, seg, false, nil, nil); res.Detected() {
			t.Fatalf("fixture segment failed verification: %+v", res.Mismatches)
		}
	})
	if allocs != 0 {
		t.Errorf("CheckSegment allocated %.1f times per run, want 0", allocs)
	}
}

// nanProgram keeps a NaN in f3 for its whole run and stores a NaN
// derived from it every iteration.
func nanProgram(iters int64) *isa.Program {
	b := asm.New("nan")
	buf := b.Reserve(4 << 10)
	b.Li(5, int64(isa.DefaultDataBase+buf))
	b.Li(6, 0x7ff8_0000_0000_0001) // a quiet NaN with a payload
	b.Fmvif(3, 6)
	b.Li(20, 0)
	b.Li(21, iters)
	b.Label("loop")
	b.Fadd(4, 3, 3)
	b.Fst(4, 5, 0)
	b.Addi(20, 20, 1)
	b.Blt(20, 21, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestSpecReplayNaNRegister pins the continuity check's comparison: it
// is the RCU's bitwise one, so a stream whose segment joints hold a NaN
// in an FP register replays without an abort.
func TestSpecReplayNaNRegister(t *testing.T) {
	ws := []Workload{{Name: "nan", Prog: nanProgram(2000)}}
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cfg.InterruptIntervalInsts = 500
	base := runSpec(t, cfg, ws)

	cache := NewSpecCache()
	cfg.Spec = cache
	for i := 0; i < 2; i++ {
		if got := runSpec(t, cfg, ws); got != base {
			t.Fatalf("cached run %d diverged from the run without a cache", i)
		}
	}
	st := cache.Stats()
	if st.SpecAborts != 0 {
		t.Errorf("NaN-holding stream raised %d aborts", st.SpecAborts)
	}
	if st.StreamsReplayed == 0 || st.SegmentsReplayed < 2 {
		t.Errorf("replayed %d streams, %d segments; want the second run replayed past a joint", st.StreamsReplayed, st.SegmentsReplayed)
	}
}

// countingInterceptor counts every result it sees and passes it through.
type countingInterceptor struct{ calls int }

func (c *countingInterceptor) Result(_ isa.Inst, _ isa.Class, _ bool, v uint64) uint64 {
	c.calls++
	return v
}

func (c *countingInterceptor) Address(_ isa.Inst, addr uint64) uint64 { return addr }

// TestSpecDivergedInterceptorRunReturns pins the fallback rule for runs
// with an injector: a replay that fails the continuity check has already
// advanced the injector, so Run must hand ErrSpecDiverged back instead of
// rerunning with it. A rerun with a fresh injector and no cache then
// matches the live run, call for call.
func TestSpecDivergedInterceptorRunReturns(t *testing.T) {
	ws := []Workload{{Name: "m0", Prog: mixedProgram(6000)}}
	withCounter := func(spec *SpecCache) (Config, *countingInterceptor) {
		cfg := DefaultConfig(a510Checkers(2, 2.0))
		cfg.InterruptIntervalInsts = 500
		intc := &countingInterceptor{}
		cfg.CheckerInterceptor = func(_, _ int) emu.Interceptor { return intc }
		cfg.Spec = spec
		return cfg, intc
	}
	live, liveIntc := withCounter(nil)
	base := runSpec(t, live, ws)

	cache := NewSpecCache()
	prime := DefaultConfig()
	prime.Spec = cache
	runSpec(t, prime, ws)
	cache.testCorrupt = func(_, seq int, rs *recSeg) {
		if seq == 3 {
			rs.start.X[5] ^= 1
		}
	}
	cfg, intc := withCounter(cache)
	if _, err := Run(cfg, ws); !errors.Is(err, ErrSpecDiverged) {
		t.Fatalf("Run with an interceptor returned %v, want ErrSpecDiverged", err)
	}
	if intc.calls == 0 || intc.calls >= liveIntc.calls {
		t.Fatalf("aborted run made %d interceptor calls, want some but fewer than the live run's %d", intc.calls, liveIntc.calls)
	}
	if st := cache.Stats(); st.SpecAborts != 1 {
		t.Errorf("counted %d aborts, want 1", st.SpecAborts)
	}

	rerun, fresh := withCounter(nil)
	if got := runSpec(t, rerun, ws); got != base {
		t.Error("fresh live rerun diverged from the live run")
	}
	if fresh.calls != liveIntc.calls {
		t.Errorf("fresh rerun made %d interceptor calls, live run %d", fresh.calls, liveIntc.calls)
	}
}

// runPhasedFault runs cfg over w with checker faults that follow the
// lane's recovery history: checker 0 is faulty until its first
// quarantine; the pool is then healthy for three segments, so checker
// 1 verifies clean probation material; then checker 1 is faulty for
// good. Its quarantine empties the active pool while checker 0 cools
// down, so the lane degrades until checker 0, healed, shadow-checks its
// way back in.
func runPhasedFault(t *testing.T, cfg Config, w Workload) *Result {
	t.Helper()
	phase, mark := 0, 0
	intc := &stuckAtInterceptor{bit: 3}
	cfg.CheckerInterceptor = func(_, id int) emu.Interceptor {
		if (phase == 0 && id == 0) || (phase == 2 && id == 1) {
			return intc
		}
		return nil
	}
	s, err := NewSystem(cfg, []Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Spec != nil {
		s.initSpec()
	}
	for l := s.nextLane(); l != nil; l = s.nextLane() {
		if err := s.runSegment(l); err != nil {
			t.Fatal(err)
		}
		switch {
		case phase == 0 && l.res.Recovery.Quarantines > 0:
			phase, mark = 1, l.res.Segments
		case phase == 1 && l.res.Segments >= mark+3:
			phase = 2
		}
	}
	res := s.collect()
	s.release()
	return res
}

// TestSpecFaultedRecoveryReplay is the determinism contract of fault
// trials on a shared cache: a checker-faulted run with the recovery
// pipeline live replays the main stream from an unchecked priming
// recording, checks every segment for real, and must render
// byte-identically to the same run live, each with a fresh injector.
// Full-coverage and opportunistic boundaries both differ from the
// priming run's, and the phased case quarantines, degrades and
// readmits. None of the faulted runs may record.
func TestSpecFaultedRecoveryReplay(t *testing.T) {
	w := Workload{Name: "mixed", Prog: mixedProgram(20000)}
	cache := NewSpecCache()
	prime := DefaultConfig()
	prime.Spec = cache
	runSpec(t, prime, []Workload{w})
	if st := cache.Stats(); st.StreamsRecorded != 1 {
		t.Fatalf("priming recorded %d streams, want 1", st.StreamsRecorded)
	}

	persistent := func(cfg Config, spec *SpecCache) *Result {
		withCheckerFault(&cfg, 0, 3)
		cfg.Spec = spec
		res, err := Run(cfg, []Workload{w})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	phased := func(cfg Config, spec *SpecCache) *Result {
		cfg.Spec = spec
		return runPhasedFault(t, cfg, w)
	}
	full := DefaultConfig(a510Checkers(4, 2.0))
	full.Recovery = DefaultRecovery()
	opp := DefaultConfig(a510Checkers(2, 2.0))
	opp.Mode = ModeOpportunistic
	opp.Recovery = DefaultRecovery()
	cycle := DefaultConfig(a510Checkers(2, 2.0))
	cycle.Recovery = DefaultRecovery()
	cycle.Recovery.Quarantine.CooldownNS = 20_000
	cases := []struct {
		name string
		cfg  Config
		run  func(Config, *SpecCache) *Result
	}{
		{"full-coverage", full, persistent},
		{"opportunistic", opp, persistent},
		{"quarantine-degrade-readmit", cycle, phased},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := tc.run(tc.cfg, nil)
			st := live.Lanes[0].Recovery
			if st.Quarantines == 0 {
				t.Fatalf("no quarantine: %+v", st)
			}
			if tc.name == "quarantine-degrade-readmit" &&
				(live.Lanes[0].DegradedSegments == 0 || st.Readmissions == 0) {
				t.Fatalf("phased run did not degrade and readmit: degraded %d segments, %+v",
					live.Lanes[0].DegradedSegments, st)
			}
			before := cache.Stats().StreamsReplayed
			if got, want := renderResult(tc.run(tc.cfg, cache)), renderResult(live); got != want {
				t.Fatalf("replayed run diverged from the live run:\n--- live ---\n%s\n--- replay ---\n%s", want, got)
			}
			if cache.Stats().StreamsReplayed == before {
				t.Error("faulted run did not replay the primed stream")
			}
		})
	}
	st := cache.Stats()
	if st.StreamsRecorded != 1 {
		t.Errorf("faulted runs recorded: %d streams in the cache, want the primed 1", st.StreamsRecorded)
	}
	if st.SpecAborts != 0 {
		t.Errorf("faulted replays raised %d aborts", st.SpecAborts)
	}
}

// randProgram mixes RAND results into its stores, so its stream
// depends on the seed.
func randProgram(iters int64) *isa.Program {
	b := asm.New("rand")
	buf := b.Reserve(4 << 10)
	b.Li(5, int64(isa.DefaultDataBase+buf))
	b.Li(20, 0)
	b.Li(21, iters)
	b.Label("loop")
	b.Rand(8)
	b.Andi(6, 8, 4<<10/8-1)
	b.Slli(6, 6, 3)
	b.Add(7, 5, 6)
	b.St(8, 8, 7, 0)
	b.Addi(20, 20, 1)
	b.Blt(20, 21, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestSpecSeedSharing pins the seed rule of stream keys: the seed
// reaches execution only through RAND, so a RAND-free program records
// one stream that serves every seed, while a program with RAND records
// one stream per seed. Every run matches its own live baseline.
func TestSpecSeedSharing(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *isa.Program
		want uint64
	}{
		{"rand-free", mixedProgram(3000), 1},
		{"rand", randProgram(3000), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := []Workload{{Name: tc.name, Prog: tc.prog}}
			cache := NewSpecCache()
			for _, seed := range []uint64{1, 2} {
				cfg := DefaultConfig(a510Checkers(2, 2.0))
				cfg.Seed = seed
				base := runSpec(t, cfg, ws)
				cfg.Spec = cache
				for i := 0; i < 2; i++ {
					if got := runSpec(t, cfg, ws); got != base {
						t.Fatalf("seed %d, cached run %d diverged from its live baseline", seed, i)
					}
				}
			}
			st := cache.Stats()
			if st.StreamsRecorded != tc.want {
				t.Errorf("recorded %d streams over two seeds, want %d", st.StreamsRecorded, tc.want)
			}
			if st.SpecAborts != 0 {
				t.Errorf("raised %d aborts", st.SpecAborts)
			}
		})
	}
}

// TestSpecRecordingSize pins the recording format's footprint: a
// mixedProgram recording must take no more bytes per instruction than
// the format it replaced, which kept a 4-byte PC per instruction, a
// 32-byte entry header per logged instruction, 32-byte memory records
// and two architectural states per segment, with the same flag byte.
func TestSpecRecordingSize(t *testing.T) {
	ws := []Workload{{Name: "m0", Prog: mixedProgram(12000)}}
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cache := NewSpecCache()
	cfg.Spec = cache
	runSpec(t, cfg, ws)
	var st *recStream
	for _, s := range cache.streams {
		st = s
	}
	if st == nil || !st.complete {
		t.Fatal("no complete recording")
	}
	var insts, now, old int
	for _, rs := range st.segs {
		logged := 0
		for _, fl := range rs.flags {
			if fl&specOpsMask != 0 {
				logged++
			}
		}
		insts += len(rs.flags)
		now += rs.memBytes()
		old += 2*int(unsafe.Sizeof(emu.ArchState{})) + 3*24 + int(unsafe.Sizeof(CheckResult{})) +
			5*len(rs.flags) + 32*logged + 32*len(rs.ops)
	}
	if insts == 0 {
		t.Fatal("empty recording")
	}
	perNow, perOld := float64(now)/float64(insts), float64(old)/float64(insts)
	t.Logf("recording: %.2f B/inst, replaced format %.2f B/inst", perNow, perOld)
	if perNow > perOld {
		t.Errorf("recording takes %.2f B/inst, more than the replaced format's %.2f", perNow, perOld)
	}
}

// TestDropProgram pins SpecCache.DropProgram: dropping one program
// removes every stream recorded over it, under any window, with their
// micro traces and its seed memo, returns the byte count to its value
// before those streams were recorded, and leaves another program's
// streams and micro traces in place. A later run of the dropped program
// records afresh and still matches its live baseline.
func TestDropProgram(t *testing.T) {
	keep, drop := mixedProgram(12000), mixedProgram(9000)
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cache := NewSpecCache()
	cfg.Spec = cache
	// Two runs of each workload: the first records the stream, the
	// second replays it and records the main geometry's micro trace.
	twice := func(ws []Workload) {
		for i := 0; i < 2; i++ {
			runSpec(t, cfg, ws)
		}
	}
	twice([]Workload{{Name: "keep", Prog: keep, MaxInsts: 8000, WarmupInsts: 2000}})
	before := cache.bytes
	dropWindows := [][]Workload{
		{{Name: "drop", Prog: drop, MaxInsts: 8000, WarmupInsts: 2000}},
		{{Name: "drop", Prog: drop, MaxInsts: 5000}},
	}
	for _, ws := range dropWindows {
		twice(ws)
	}
	count := func(prog *isa.Program) (streams, micro int) {
		for key, st := range cache.streams {
			if key.prog == prog {
				streams++
				micro += len(st.micro)
			}
		}
		return streams, micro
	}
	if s, m := count(drop); s != 2 || m != 2 || cache.bytes <= before {
		t.Fatalf("before the drop: %d streams, %d micro traces, %d bytes (was %d); want 2, 2 and more bytes", s, m, cache.bytes, before)
	}

	cache.DropProgram(drop)
	if s, m := count(drop); s != 0 || m != 0 {
		t.Errorf("after the drop: %d streams and %d micro traces over the dropped program remain", s, m)
	}
	if s, m := count(keep); s != 1 || m != 1 {
		t.Errorf("after the drop: the kept program has %d streams and %d micro traces, want 1 and 1", s, m)
	}
	if cache.bytes != before {
		t.Errorf("after the drop: %d bytes, want %d (the count before the dropped streams were recorded)", cache.bytes, before)
	}
	if _, ok := cache.seeded[drop]; ok {
		t.Error("the seed memo still names the dropped program")
	}
	if _, ok := cache.seeded[keep]; !ok {
		t.Error("the seed memo lost the kept program")
	}
	if cache.Streams() != 1 {
		t.Errorf("Streams() = %d, want 1", cache.Streams())
	}

	ws := dropWindows[0]
	live := cfg
	live.Spec = nil
	recorded := cache.Stats().StreamsRecorded
	if got, want := runSpec(t, cfg, ws), runSpec(t, live, ws); got != want {
		t.Error("a run of the dropped program diverged from its live baseline")
	}
	if cache.Stats().StreamsRecorded != recorded+1 {
		t.Error("a run of the dropped program did not record its stream afresh")
	}
}
