package fuzz

import (
	"runtime"
	"testing"

	"paraverser/internal/core"
)

// TestRunAllocBudget pins the per-run construction cost of a short
// simulation: once warm, one core.Run of a 200-instruction fuzz program
// under the lockstep differential configuration must allocate at most
// 512 KiB. Rebuilding the cache tag arrays of one main core, its two
// checkers and the 8 MB LLC on every run costs about 3 MiB, and their
// branch-predictor tables another 0.5 MiB; with both recycled
// (cpu.Core.Release) the log arenas remain, about 0.15 MiB.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	const runs = 20
	const budget = 512 << 10
	p := Generate(Mix(1), 200).Program()
	ws := []core.Workload{{Name: p.Name, Prog: p}}
	cfg := sysConfig(1, core.StrategyLockstep)
	run := func() {
		if _, err := core.Run(cfg, ws); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Errorf("core.Run allocates %.2f MiB/run, want <= %.2f MiB",
			float64(per)/(1<<20), float64(budget)/(1<<20))
	} else {
		t.Logf("core.Run allocates %.2f MiB/run", float64(per)/(1<<20))
	}
}
