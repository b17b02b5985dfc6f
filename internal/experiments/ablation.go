package experiments

import (
	"fmt"

	"paraverser/internal/core"
	"paraverser/internal/stats"
)

// AblationRow is one design-choice variant's summary.
type AblationRow struct {
	Label       string
	SlowdownPct float64 // geomean
	CoveragePct float64 // geomean (100 for full-coverage variants)
	LogBPI      float64 // log bytes per instruction, mean
}

// AblationResult studies the individual design decisions of section IV on
// the same checker pool (4xA510@2.0): eager checker waking (IV-H), the
// repurposed 64KiB LSL$ versus prior work's 3KiB dedicated SRAM (IV-B),
// Hash Mode (IV-I), commit-delaying versus commit-overlapped register
// checkpointing (IV-D), and the time-based sampling extension
// (footnote 18).
type AblationResult struct {
	Rows  []AblationRow
	Notes []string
}

// Table renders the study.
func (a *AblationResult) Table() string {
	t := stats.NewTable("variant", "slowdown %", "coverage %", "log B/inst")
	for _, r := range a.Rows {
		t.Row(r.Label, fmt.Sprintf("%.2f", r.SlowdownPct),
			fmt.Sprintf("%.1f", r.CoveragePct), fmt.Sprintf("%.2f", r.LogBPI))
	}
	out := "Ablation: section IV design choices on 4xA510@2.0 checkers\n" + t.String()
	for _, n := range a.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Ablation runs the study.
func Ablation(sc Scale) (*AblationResult, error) { return ablation(defaultEngine(), sc) }

func ablation(e *Engine, sc Scale) (*AblationResult, error) {
	base := func() core.Config { return core.DefaultConfig(a510Spec(4, 2.0)) }
	variants := []NamedConfig{
		{Label: "ParaVerser (all mechanisms)", Cfg: base()},
	}
	{
		cfg := base()
		cfg.EagerWake = false
		variants = append(variants, NamedConfig{Label: "no eager waking (IV-H off)", Cfg: cfg})
	}
	{
		cfg := base()
		cfg.DedicatedLSLBytes = 3 << 10
		variants = append(variants, NamedConfig{Label: "3KiB dedicated LSL (no LSL$ repurposing)", Cfg: cfg})
	}
	{
		cfg := base()
		cfg.HashMode = true
		variants = append(variants, NamedConfig{Label: "Hash Mode (IV-I)", Cfg: cfg})
	}
	{
		cfg := base()
		cfg.CheckpointDrains = true
		cfg.CheckpointStallCycles = 40
		variants = append(variants, NamedConfig{Label: "commit-delaying checkpoints (DSN18-style RCU)", Cfg: cfg})
	}
	{
		cfg := base()
		cfg.Mode = core.ModeOpportunistic
		variants = append(variants, NamedConfig{Label: "opportunistic mode", Cfg: cfg})
	}
	{
		cfg := base()
		cfg.Mode = core.ModeOpportunistic
		cfg.SamplePeriod = 4
		variants = append(variants, NamedConfig{Label: "opportunistic + 1-in-4 sampling (fn.18)", Cfg: cfg})
	}

	benches := sc.benchmarks()
	baseF, runF := sc.submitMatrix(e, variants, benches)

	out := &AblationResult{}
	for _, nc := range variants {
		var slows, covs []float64
		var bpiSum float64
		for _, bench := range benches {
			base, err := clean(baseF[bench], "ablation baseline %s", bench)
			if err != nil {
				return nil, err
			}
			res, err := clean(runF[nc.Label][bench], "ablation %s/%s", nc.Label, bench)
			if err != nil {
				return nil, err
			}
			lane := res.Lanes[0]
			slows = append(slows, res.TimeNS()/base.TimeNS())
			covs = append(covs, lane.Coverage()*100)
			bpiSum += float64(lane.LogBytes) / float64(lane.Insts)
		}
		out.Rows = append(out.Rows, AblationRow{
			Label:       nc.Label,
			SlowdownPct: (stats.Geomean(slows) - 1) * 100,
			CoveragePct: stats.Mean(covs),
			LogBPI:      bpiSum / float64(len(benches)),
		})
	}
	out.Notes = append(out.Notes,
		"eager waking and the large repurposed LSL$ are what keep checkpointing overhead negligible (section VII-A)",
		"Hash Mode trades NoC bytes for SHA-256 work; sampling trades coverage for checker energy")
	return out, nil
}
