package experiments

import (
	"strings"
	"testing"
)

// strategyScale is the smallest scale that still gives every strategy a
// fault-injection campaign and clean slowdown runs over three suites.
func strategyScale() Scale {
	return Scale{
		Insts:           40_000,
		Warmup:          20_000,
		FaultTrials:     2,
		FaultHorizon:    60_000,
		FaultBenchmarks: []string{"exchange2"},
		GAPScale:        8,
		GAPEdgeFactor:   6,
		ParsecScale:     200,
	}
}

// TestStrategyStudyDeterminism is the head-to-head experiment's
// contract: the rendered table is byte-identical at any engine worker
// count, which also bounds the campaigns (trial seeds derive from the
// base seed; results land in trial order), and the study's shape holds
// — all four strategies reported, campaigns paired trial-for-trial,
// finite cost columns.
func TestStrategyStudyDeterminism(t *testing.T) {
	sc := strategyScale()
	var want string
	for i, workers := range []int{1, 4} {
		e := NewEngine(workers)
		r, err := strategyStudy(e, sc, 11, 4)
		if err != nil {
			t.Fatalf("strategy study at %d workers: %v", workers, err)
		}
		got := r.Table()
		if i == 0 {
			want = got

			if len(r.Order) != 4 {
				t.Fatalf("study covers %d strategies, want 4", len(r.Order))
			}
			trials := len(r.Campaigns[r.Order[0]].Trials)
			for _, name := range r.Order {
				camp := r.Campaigns[name]
				if camp == nil || len(camp.Trials) != trials {
					t.Fatalf("%s campaign not paired: %v", name, camp)
				}
				if !strings.Contains(got, name) {
					t.Errorf("table missing strategy %q:\n%s", name, got)
				}
				if ovh := r.EnergyOverheadPct[name]; ovh <= 0 {
					t.Errorf("%s energy overhead %.2f%%, want > 0", name, ovh)
				}
			}
			if r.AreaOverheadPct <= 0 {
				t.Errorf("area overhead %.2f%%, want > 0", r.AreaOverheadPct)
			}
			// Chunk replay must have actually batched during the clean
			// runs: its campaign pairs with the others only if the
			// strategy engaged.
			if m := r.Campaigns["chunk-replay"].RunMetrics(); m.ChunkSegments == 0 {
				t.Error("chunk-replay campaign recorded no chunk activity")
			}
			continue
		}
		if got != want {
			t.Errorf("strategy table differs between 1 and %d workers:\n%s\n--- vs ---\n%s", workers, got, want)
		}
	}
}
