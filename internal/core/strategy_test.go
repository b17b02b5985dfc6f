package core

import (
	"math"
	"strings"
	"testing"
)

// TestStrategyParseResolve pins the strategy names the study tables
// print as column labels.
func TestStrategyParseResolve(t *testing.T) {
	for st, want := range map[Strategy]string{
		StrategyLockstep:    "lockstep",
		StrategyDivergent:   "divergent",
		StrategyChunkReplay: "chunk-replay",
		StrategyRelaxed:     "relaxed",
		Strategy(99):        "invalid",
	} {
		if got := st.String(); got != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", st, got, want)
		}
	}
}

// TestStrategyValidation is the table-driven incompatibility sweep: each
// strategy declares the operating mode and hash setting it defines
// behaviour for, and Validate must reject the rest with a one-line
// error instead of running a meaningless simulation.
func TestStrategyValidation(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*Config)
		wantErr string
	}{
		// A default config runs lockstep without naming it; anything
		// else is turned into an invalid value so Validate fails.
		{"zero-value-is-lockstep", func(c *Config) {
			if c.Strategy != StrategyLockstep {
				c.Strategy = Strategy(99)
			}
		}, ""},
		{"lockstep-ok", func(c *Config) { c.Strategy = StrategyLockstep }, ""},
		{"chunk-replay-ok", func(c *Config) { c.Strategy = StrategyChunkReplay }, ""},
		{"relaxed-ok", func(c *Config) { c.Strategy = StrategyRelaxed }, ""},
		{"divergent-ok", func(c *Config) { c.Strategy = StrategyDivergent }, ""},
		{"divergent-opportunistic", func(c *Config) {
			c.Strategy = StrategyDivergent
			c.Mode = ModeOpportunistic
		}, "divergent strategy requires full-coverage mode"},
		{"divergent-hash-mode", func(c *Config) {
			c.Strategy = StrategyDivergent
			c.HashMode = true
		}, "divergent strategy is incompatible with Hash Mode"},
		{"chunk-replay-opportunistic", func(c *Config) {
			c.Strategy = StrategyChunkReplay
			c.Mode = ModeOpportunistic
		}, "chunk-replay strategy requires full-coverage mode"},
		{"chunk-replay-hash-mode", func(c *Config) {
			c.Strategy = StrategyChunkReplay
			c.HashMode = true
		}, "incompatible with Hash Mode"},
		{"relaxed-opportunistic", func(c *Config) {
			c.Strategy = StrategyRelaxed
			c.Mode = ModeOpportunistic
		}, "relaxed strategy requires full-coverage mode"},
		{"invalid-strategy-value", func(c *Config) {
			c.Strategy = Strategy(99)
		}, "invalid checking strategy"},
		// Checker-less baselines never verify anything, so mode/hash
		// incompatibilities are moot for them.
		{"chunk-replay-no-checkers", func(c *Config) {
			c.Strategy = StrategyChunkReplay
			c.Mode = ModeOpportunistic
			c.Checkers = nil
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// runStrategy runs cfg with the given strategy over a standard two-lane
// workload pair and returns the flattened result string.
func runStrategy(t *testing.T, st Strategy, mut func(*Config)) string {
	t.Helper()
	prog := mixedProgram(12000)
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cfg.Strategy = st
	if mut != nil {
		mut(&cfg)
	}
	ws := []Workload{
		{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
		{Name: "m1", Prog: prog},
	}
	res, err := Run(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	return renderResult(res)
}

// TestStrategyWorkerAndShardInvariance extends the determinism gates to
// the new strategies: chunk-replay and relaxed-start runs must render
// byte-identically with a SpecCache attached. Neither strategy is
// cache-eligible, so the cache must be inert — this pins that no
// recording or replay path engages by accident.
func TestStrategyWorkerAndShardInvariance(t *testing.T) {
	for _, st := range []Strategy{StrategyChunkReplay, StrategyRelaxed} {
		t.Run(st.String(), func(t *testing.T) {
			base := runStrategy(t, st, nil)
			cache := NewSpecCache()
			for i := 0; i < 2; i++ {
				if got := runStrategy(t, st, func(c *Config) { c.Spec = cache }); got != base {
					t.Errorf("cached run %d diverged from the run without a cache", i)
				}
			}
		})
	}
}

// TestChunkReplayCleanAndCovered asserts the chunk-replay contract on a
// clean run: full coverage, zero detections, batching actually
// happening (many segments per chunk check), and stall-free segment
// boundaries — the strategy only ever stalls at chunk grain.
func TestChunkReplayCleanAndCovered(t *testing.T) {
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cfg.Strategy = StrategyChunkReplay
	res, err := Run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(20000)}})
	if err != nil {
		t.Fatal(err)
	}
	lane := res.Lanes[0]
	if lane.Detections != 0 {
		t.Fatalf("clean chunk-replay run raised %d detections: %v", lane.Detections, lane.SampleMismatches)
	}
	if got := lane.Coverage(); got != 1.0 {
		t.Errorf("full-coverage chunk-replay run covered %.3f, want 1.0", got)
	}
	m := res.Metrics
	if m.ChunkChecks == 0 || m.ChunkSegments == 0 {
		t.Fatalf("no chunk activity recorded: checks=%d segments=%d", m.ChunkChecks, m.ChunkSegments)
	}
	if m.ChunkChecks >= m.ChunkSegments {
		t.Errorf("chunking never batched: %d checks over %d segments", m.ChunkChecks, m.ChunkSegments)
	}
	var ckInsts uint64
	for _, ck := range res.CheckersByLane[0] {
		ckInsts += ck.Insts
	}
	if ckInsts != lane.CheckedInsts {
		t.Errorf("checkers verified %d insts, main checked %d", ckInsts, lane.CheckedInsts)
	}
}

// TestChunkReplayDetectionLatency pins the strategy's stated trade: a
// persistent checker fault is still detected, but at chunk granularity,
// so the first detection can come no earlier than under per-segment
// lockstep on the identical run.
func TestChunkReplayDetectionLatency(t *testing.T) {
	run := func(st Strategy) *LaneResult {
		cfg := DefaultConfig(a510Checkers(2, 2.0))
		cfg.Strategy = st
		withCheckerFault(&cfg, 0, 3)
		res, err := Run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(20000)}})
		if err != nil {
			t.Fatal(err)
		}
		return &res.Lanes[0]
	}
	lock := run(StrategyLockstep)
	chunk := run(StrategyChunkReplay)
	if lock.Detections == 0 || chunk.Detections == 0 {
		t.Fatalf("fault undetected (lockstep=%d chunk=%d detections); test is vacuous",
			lock.Detections, chunk.Detections)
	}
	if chunk.FirstDetectionInst < lock.FirstDetectionInst {
		t.Errorf("chunk-replay detected at inst %d, before lockstep's %d — chunk granularity cannot beat per-segment checking",
			chunk.FirstDetectionInst, lock.FirstDetectionInst)
	}
}

// TestRelaxedReducesStalls pins relaxed start's purpose: against an
// undersized pool it must defer checks instead of stalling, spending
// strictly less main-core stall time than lockstep on the identical
// run while keeping full coverage and clean verification.
func TestRelaxedReducesStalls(t *testing.T) {
	run := func(st Strategy) (*LaneResult, uint64) {
		cfg := DefaultConfig(a510Checkers(1, 1.0)) // deliberately slow, single checker
		cfg.Strategy = st
		res, err := Run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(16000)}})
		if err != nil {
			t.Fatal(err)
		}
		return &res.Lanes[0], res.Metrics.RelaxedDeferred
	}
	lock, lockDef := run(StrategyLockstep)
	rel, relDef := run(StrategyRelaxed)
	if lockDef != 0 {
		t.Errorf("lockstep run recorded %d relaxed deferrals", lockDef)
	}
	if relDef == 0 {
		t.Fatal("relaxed run never deferred a check; pool pressure too low, test is vacuous")
	}
	if lock.StallNS == 0 {
		t.Fatal("lockstep run never stalled; pool pressure too low, test is vacuous")
	}
	if rel.StallNS >= lock.StallNS {
		t.Errorf("relaxed stalled %.0fns, lockstep %.0fns; deferral bought nothing", rel.StallNS, lock.StallNS)
	}
	if rel.Detections != 0 {
		t.Errorf("clean relaxed run raised %d detections", rel.Detections)
	}
	if got := rel.Coverage(); got != 1.0 {
		t.Errorf("relaxed run covered %.3f, want 1.0", got)
	}
}

// TestRelaxedQueueDepthCountsBacklog pins what the queue-depth
// histogram measures: checks on the pool still running when a
// segment's checkpoint closes, the new one included. With one slow
// checker, lockstep stalls until the checker frees before every
// segment, so its backlog is only ever the new check; relaxed start
// defers checks onto the busy checker, and those dispatches must show
// a backlog of at least two.
func TestRelaxedQueueDepthCountsBacklog(t *testing.T) {
	run := func(st Strategy) *Result {
		cfg := DefaultConfig(a510Checkers(1, 1.0))
		cfg.Strategy = st
		res, err := Run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(16000)}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Counts[0] and Counts[1] hold the samples <= 0 and <= 1.
	backlogged := func(res *Result) uint64 {
		h := &res.Metrics.CheckQueueDepth
		return h.N - h.Counts[0] - h.Counts[1]
	}
	lock := run(StrategyLockstep)
	if n := backlogged(lock); n != 0 || lock.Metrics.CheckQueueDepth.N == 0 {
		t.Errorf("lockstep on one checker: %d of %d depth samples >= 2, want 0 of > 0",
			n, lock.Metrics.CheckQueueDepth.N)
	}
	rel := run(StrategyRelaxed)
	if rel.Metrics.RelaxedDeferred == 0 {
		t.Fatal("relaxed run never deferred a check; test is vacuous")
	}
	if backlogged(rel) == 0 {
		t.Errorf("relaxed run deferred %d checks but no depth sample reached 2: %s",
			rel.Metrics.RelaxedDeferred, rel.Metrics.CheckQueueDepth.String())
	}
}

// TestChunkReplayEmptyPoolDegrades drives the chunk accumulator into
// the quarantine-emptied-pool path: the pending chunk must be
// reclassified into the degraded counters (not silently counted as
// checked), and every ratio stays finite — the satellite guard on
// Result/LaneResult accounting.
func TestChunkReplayEmptyPoolDegrades(t *testing.T) {
	cfg := DefaultConfig(a510Checkers(1, 2.0))
	cfg.Strategy = StrategyChunkReplay
	cfg.Recovery = DefaultRecovery()
	cfg.Recovery.Quarantine.CooldownNS = 1e12 // never readmit within the run
	withCheckerFault(&cfg, 0, 3)
	res, err := Run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(20000)}})
	if err != nil {
		t.Fatal(err)
	}
	lane := res.Lanes[0]
	if lane.Detections == 0 {
		t.Fatal("fault never detected")
	}
	if lane.Recovery.Quarantines == 0 {
		t.Fatal("checker never quarantined")
	}
	if lane.DegradedSegments == 0 || lane.DegradedInsts == 0 {
		t.Errorf("no degraded window accounted: %+v", lane)
	}
	if got := lane.Coverage(); got >= 1.0 {
		t.Errorf("coverage %.3f with an empty pool, want < 1.0", got)
	}
	for name, v := range map[string]float64{
		"lane coverage":   lane.Coverage(),
		"lane degraded":   lane.DegradedRatio(),
		"lane time share": lane.DegradedTimeShare(),
		"result coverage": res.Coverage(),
		"result degraded": res.DegradedRatio(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			t.Errorf("%s = %v, want a finite ratio in [0,1]", name, v)
		}
	}
	if lane.CheckedInsts+lane.UncheckedInsts != lane.Insts {
		t.Errorf("checked %d + unchecked %d != executed %d after chunk reclassification",
			lane.CheckedInsts, lane.UncheckedInsts, lane.Insts)
	}
}

// TestDegradedRatioGuards is the satellite table: empty and degenerate
// Result/LaneResult values must report 0, never NaN or a division
// panic.
func TestDegradedRatioGuards(t *testing.T) {
	cases := []struct {
		name string
		lane LaneResult
		want float64
	}{
		{"zero lane", LaneResult{}, 0},
		{"zero insts nonzero degraded", LaneResult{DegradedInsts: 5, DegradedNS: 10}, 0},
		{"half degraded", LaneResult{Insts: 10, DegradedInsts: 5}, 0.5},
	}
	for _, tc := range cases {
		if got := tc.lane.DegradedRatio(); got != tc.want || math.IsNaN(got) {
			t.Errorf("%s: DegradedRatio() = %v, want %v", tc.name, got, tc.want)
		}
	}
	zero := LaneResult{DegradedNS: 3}
	if got := zero.DegradedTimeShare(); got != 0 {
		t.Errorf("zero-duration lane DegradedTimeShare() = %v, want 0", got)
	}
	half := LaneResult{TimeNS: 10, DegradedNS: 5}
	if got := half.DegradedTimeShare(); got != 0.5 {
		t.Errorf("DegradedTimeShare() = %v, want 0.5", got)
	}
	for _, tc := range []struct {
		name string
		res  Result
		want float64
	}{
		{"no lanes", Result{}, 0},
		{"empty lanes", Result{Lanes: []LaneResult{{}, {}}}, 0},
		{"aggregated", Result{Lanes: []LaneResult{{Insts: 10, DegradedInsts: 5}, {Insts: 10}}}, 0.25},
	} {
		if got := tc.res.DegradedRatio(); got != tc.want || math.IsNaN(got) {
			t.Errorf("%s: Result.DegradedRatio() = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.res.Coverage(); math.IsNaN(got) {
			t.Errorf("%s: Result.Coverage() = NaN", tc.name)
		}
	}
}

// BenchmarkCheckSegmentChunkReplay measures the chunk-accumulation hot
// path: folding one closed segment's entries into the per-lane chunk
// arenas. Steady state must not allocate — the arenas keep their
// capacity across chunks — which the zero-alloc CI gate enforces via
// the benchmark's allocation report.
func BenchmarkCheckSegmentChunkReplay(b *testing.B) {
	prog, seg := benchSegment(b)
	_ = prog
	c := &chunkState{
		entries: make([]Entry, 0, 4*1024),
		ops:     make([]MemRec, 0, 4*1024),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.reset()
		for j := range seg.Entries {
			o := len(c.ops)
			c.ops = append(c.ops, seg.Entries[j].Ops...)
			e := seg.Entries[j]
			e.Ops = c.ops[o:len(c.ops):len(c.ops)]
			c.entries = append(c.entries, e)
		}
		c.insts += seg.Insts
	}
}

// TestChunkAccumulateZeroAlloc pins the same property as an assertion:
// steady-state chunk accumulation through warm arenas performs zero
// heap allocations.
func TestChunkAccumulateZeroAlloc(t *testing.T) {
	prog := mixedProgram(1 << 30)
	_ = prog
	cfg := DefaultConfig(a510Checkers(2, 2.0))
	cfg.Strategy = StrategyChunkReplay
	// Warm the arenas with one run-sized accumulation, then measure.
	seg := &Segment{Insts: 100, Entries: []Entry{{Ops: []MemRec{{}, {}}}, {Ops: []MemRec{{}}}}}
	c := &chunkState{
		entries: make([]Entry, 0, 64),
		ops:     make([]MemRec, 0, 64),
	}
	allocs := testing.AllocsPerRun(50, func() {
		c.reset()
		for j := range seg.Entries {
			o := len(c.ops)
			c.ops = append(c.ops, seg.Entries[j].Ops...)
			e := seg.Entries[j]
			e.Ops = c.ops[o:len(c.ops):len(c.ops)]
			c.entries = append(c.entries, e)
		}
	})
	if allocs != 0 {
		t.Errorf("chunk accumulation allocated %.1f times per segment, want 0", allocs)
	}
}
