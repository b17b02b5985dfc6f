package experiments

import (
	"fmt"

	"paraverser/internal/core"
	"paraverser/internal/lockstep"
	"paraverser/internal/power"
	"paraverser/internal/stats"
)

// PowerRow is one energy configuration's summary.
type PowerRow struct {
	Label          string
	EnergyOverhead float64 // geomean, fraction (0.49 = 49%)
	SlowdownPct    float64 // geomean
}

// PowerResult is the section VII-E energy study.
type PowerResult struct {
	Rows  []PowerRow
	Notes []string
}

// Table renders the study.
func (p *PowerResult) Table() string {
	t := stats.NewTable("configuration", "energy overhead %", "slowdown %")
	for _, row := range p.Rows {
		t.Row(row.Label, fmt.Sprintf("%.1f", row.EnergyOverhead*100),
			fmt.Sprintf("%.2f", row.SlowdownPct))
	}
	out := "Section VII-E: energy overhead vs baseline with checkers power gated\n" + t.String()
	for _, n := range p.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Power reproduces the energy-overhead study: homogeneous (dual-core-
// lockstep-comparable), the heterogeneous points, the per-benchmark
// ED²P-minimal DVFS configuration, and the prior-work dedicated cores.
func Power(sc Scale) (*PowerResult, error) { return powerStudy(defaultEngine(), sc) }

func powerStudy(e *Engine, sc Scale) (*PowerResult, error) {
	out := &PowerResult{}
	configs := []NamedConfig{
		{Label: "1xX2@3.0 (DCLS-comparable)", Cfg: core.DefaultConfig(x2Spec(1, 3.0))},
		{Label: "2xX2@1.5", Cfg: core.DefaultConfig(x2Spec(2, 1.5))},
		{Label: "4xA510@2.0", Cfg: core.DefaultConfig(a510Spec(4, 2.0))},
		{Label: "ParaDox 16xA35 (dedicated)", Cfg: lockstep.ParaDox()},
	}

	benches := sc.benchmarks()
	baseF, runF := sc.submitMatrix(e, append(configs, sc.ed2pConfigs()...), benches)

	for _, nc := range configs {
		var overheads, slows []float64
		for _, bench := range benches {
			base, err := clean(baseF[bench], "power baseline %s", bench)
			if err != nil {
				return nil, err
			}
			res, err := clean(runF[nc.Label][bench], "power %s/%s", nc.Label, bench)
			if err != nil {
				return nil, err
			}
			rep, err := core.Energy(nc.Cfg, res)
			if err != nil {
				return nil, err
			}
			overheads = append(overheads, 1+rep.Overhead)
			slows = append(slows, res.TimeNS()/base.TimeNS())
		}
		out.Rows = append(out.Rows, PowerRow{
			Label:          nc.Label,
			EnergyOverhead: stats.Geomean(overheads) - 1,
			SlowdownPct:    (stats.Geomean(slows) - 1) * 100,
		})
	}

	// ED²P-minimal 4xA510: per-benchmark best DVFS point. The sweep was
	// submitted with the matrix (and typically already cached by fig. 6),
	// so this only assembles.
	var overheads, slows []float64
	for _, bench := range benches {
		base, err := clean(baseF[bench], "power baseline %s", bench)
		if err != nil {
			return nil, err
		}
		slow, overhead, err := ed2pPoint(sc, bench, runF, base)
		if err != nil {
			return nil, err
		}
		overheads = append(overheads, 1+overhead)
		slows = append(slows, 1+slow/100)
	}
	out.Rows = append(out.Rows, PowerRow{
		Label:          "4xA510 ED2P-minimal DVFS",
		EnergyOverhead: stats.Geomean(overheads) - 1,
		SlowdownPct:    (stats.Geomean(slows) - 1) * 100,
	})

	out.Notes = append(out.Notes,
		"paper: 95% (1xX2@3.0), 45% (2xX2@1.5), 49% (4xA510@2.0), 29% @ 4.3% slowdown (ED2P), 25% dedicated",
		fmt.Sprintf("dedicated checkers additionally cost %.0f%% area (section VII-E)",
			lockstep.AreaOverhead(lockstep.ParaDox())*100))
	return out, nil
}

// AreaResult is the section VII-E storage and area accounting, which is
// analytic (no simulation).
type AreaResult struct {
	Storage      power.StorageOverhead
	StorageBytes int
	X2MM2        float64
	A510MM2      float64
	A35x16MM2    float64
	DedicatedPct float64
}

// Area computes the accounting.
func Area() AreaResult {
	cfg := core.DefaultConfig(x2Spec(1, 3.0))
	s := power.NewStorageOverhead(cfg.Main.LQ, cfg.Main.SQ, cfg.Main.L1D.Lines())
	return AreaResult{
		Storage:      s,
		StorageBytes: s.TotalBytes(),
		X2MM2:        power.AreaX2MM2,
		A510MM2:      power.AreaA510MM2,
		A35x16MM2:    16 * power.AreaA35MM2,
		DedicatedPct: power.DedicatedAreaOverhead(16, power.AreaA35MM2, power.AreaX2MM2) * 100,
	}
}

// Table renders the accounting.
func (a AreaResult) Table() string {
	t := stats.NewTable("item", "value")
	t.Row("LSC", fmt.Sprintf("%dB", a.Storage.LSCBytes))
	t.Row("LSQ parity bits", fmt.Sprintf("%db", a.Storage.LSQParityBits))
	t.Row("LSL$ front/back indices", fmt.Sprintf("%db", a.Storage.IndexBits))
	t.Row("LSPU buffer", fmt.Sprintf("%db", a.Storage.LSPUBits))
	t.Row("LSL$ log tag bits", fmt.Sprintf("%db", a.Storage.LSLTagBits))
	t.Row("instruction timer", fmt.Sprintf("%db", a.Storage.TimerBits))
	t.Row("RCU", fmt.Sprintf("%dB", a.Storage.RCUBytes))
	t.Row("TOTAL per core", fmt.Sprintf("%dB (paper: 1064B)", a.StorageBytes))
	t.Row("X2 area", fmt.Sprintf("%.2f mm2", a.X2MM2))
	t.Row("A510 area", fmt.Sprintf("%.2f mm2", a.A510MM2))
	t.Row("16xA35 dedicated area", fmt.Sprintf("%.2f mm2 (%.0f%% of an X2, paper: 35%%)", a.A35x16MM2, a.DedicatedPct))
	return "Section VII-E: storage and area overheads\n" + t.String()
}
