package core

import (
	"fmt"
	"sync"
	"testing"

	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// renderResult flattens every externally observable statistic of a run
// into one string — including the metrics shard, whose queue-depth and
// latency histograms depend on the deferred-join order — so equality
// means the experiment tables AND the metrics export built from the
// Result are byte-identical.
func renderResult(res *Result) string {
	return fmt.Sprintf("lanes=%v\ncheckers=%v\nlink=%v llc=%v\nmetrics=%s",
		res.Lanes, res.CheckersByLane, res.MaxLinkUtilisation, res.AvgLLCExtraNS,
		res.Metrics.String())
}

// runConcurrently starts n copies of run at once and returns their
// flattened results in launch order, or the first error.
func runConcurrently(n int, run func() (*Result, error)) ([]string, error) {
	out := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := run()
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = renderResult(res)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestPipelinedWorkerCountInvariance pins that a run's result does not
// depend on how many runs share the process. Each Run is one goroutine
// with its deferred checker joins; the experiment engine's -j workers
// run several at once over shared programs, so 2 and 8 concurrent runs
// of every configuration must each render byte-identically to a lone
// run — strategies that never pipeline included.
func TestPipelinedWorkerCountInvariance(t *testing.T) {
	prog := mixedProgram(12000)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"full-coverage-eager", func(c *Config) {}},
		{"full-coverage-late-wake", func(c *Config) { c.EagerWake = false }},
		{"hash-mode", func(c *Config) { c.HashMode = true }},
		{"opportunistic-sampled", func(c *Config) {
			c.Mode = ModeOpportunistic
			c.SamplePeriod = 3
			c.Checkers = []CheckerSpec{{CPU: cpu.A35(), FreqGHz: 0.5, Count: 1}}
		}},
		{"chunk-replay", func(c *Config) { c.Strategy = StrategyChunkReplay }},
		{"relaxed", func(c *Config) { c.Strategy = StrategyRelaxed }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (*Result, error) {
				cfg := DefaultConfig(a510Checkers(2, 2.0))
				tc.mut(&cfg)
				return Run(cfg, []Workload{
					{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
					{Name: "m1", Prog: prog},
				})
			}
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			base := renderResult(res)
			for _, workers := range []int{2, 8} {
				got, err := runConcurrently(workers, run)
				if err != nil {
					t.Fatal(err)
				}
				for i, g := range got {
					if g != base {
						t.Errorf("run %d of %d concurrent diverged from a lone run:\n--- lone ---\n%s\n--- concurrent ---\n%s",
							i, workers, base, g)
					}
				}
			}
		})
	}
}

// TestRunBitDeterminism pins bit-exact run-to-run reproducibility of
// the float statistics (MaxLinkUtilisation, AvgLLCExtraNS): flow-map
// iteration order must never leak into per-link load accumulation.
func TestRunBitDeterminism(t *testing.T) {
	prog := mixedProgram(12000)
	var base string
	for i := 0; i < 4; i++ {
		cfg := DefaultConfig(a510Checkers(2, 2.0))
		cfg.EagerWake = false
		ws := []Workload{
			{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
			{Name: "m1", Prog: prog},
		}
		res, err := Run(cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v %v", res.MaxLinkUtilisation, res.AvgLLCExtraNS)
		if i == 0 {
			base = got
			continue
		}
		if got != base {
			t.Errorf("run %d diverged: %s vs %s", i, got, base)
		}
	}
}

// TestPipelinedCleanAndCovered re-asserts the core invariants of a
// full-coverage run under the deferred-join protocol: no spurious
// detections, full coverage, and per-checker instruction accounting
// that still sums to the lane's checked instructions after all the
// deferred joins.
func TestPipelinedCleanAndCovered(t *testing.T) {
	cfg := DefaultConfig(a510Checkers(4, 2.0))
	res, err := Run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(20000)}})
	if err != nil {
		t.Fatal(err)
	}
	lane := res.Lanes[0]
	if lane.Detections != 0 {
		t.Fatalf("clean pipelined run raised %d detections: %v", lane.Detections, lane.SampleMismatches)
	}
	if got := lane.Coverage(); got != 1.0 {
		t.Errorf("full-coverage pipelined run covered %.3f, want 1.0", got)
	}
	var ckInsts uint64
	for _, ck := range res.CheckersByLane[0] {
		ckInsts += ck.Insts
	}
	if ckInsts != lane.CheckedInsts {
		t.Errorf("checkers verified %d insts, main checked %d", ckInsts, lane.CheckedInsts)
	}
}

// benchSegment packages a 2000-instruction mixed segment for the
// checker-side replay benchmarks.
func benchSegment(b *testing.B) (*isa.Program, *Segment) {
	b.Helper()
	prog := mixedProgram(1 << 30)
	mach, err := emu.NewMachine(prog, 1)
	if err != nil {
		b.Fatal(err)
	}
	hart := mach.Harts[0]
	seg := &Segment{Hart: 0, Start: hart.State}
	var eff emu.Effect
	for seg.Insts < 2000 {
		if err := mach.StepHart(0, &eff); err != nil {
			b.Fatal(err)
		}
		seg.Insts++
		if e, ok := EntryFromEffect(&eff); ok {
			seg.Entries = append(seg.Entries, e)
		}
	}
	seg.End = hart.State
	return prog, seg
}

// BenchmarkCheckSegment measures one checker-side segment replay: a
// 2000-instruction mixed segment verified end to end through
// CheckSegment, one effect at a time.
func BenchmarkCheckSegment(b *testing.B) {
	prog, seg := benchSegment(b)
	// The scratch lives outside the loop exactly as each Checker holds
	// one across segments: steady-state verification allocates nothing.
	var cs CheckScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cs.CheckSegment(prog, seg, false, nil, nil)
		if res.Detected() {
			b.Fatalf("benchmark segment failed verification: %+v", res.Mismatches)
		}
	}
	b.ReportMetric(float64(seg.Insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
