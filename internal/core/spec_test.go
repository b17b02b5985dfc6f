package core

import (
	"testing"

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
