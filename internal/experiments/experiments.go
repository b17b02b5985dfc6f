//paralint:deterministic

// Package experiments regenerates every table and figure of the paper's
// evaluation (section VII): full-coverage slowdowns against the prior-work
// baselines (fig. 6), opportunistic slowdowns (fig. 7), hard-error
// coverage under fault injection (fig. 8), data-oriented and parallel
// workloads (fig. 9), multi-process mixes (fig. 10), the NoC sensitivity
// study with Hash Mode (fig. 11), and the power, area and
// compute-opportunity-cost analyses (sections VII-E and VII-F). The same
// entry points back the paraverser CLI and the repository's benchmark
// suite.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"paraverser/internal/core"
	"paraverser/internal/isa"
	"paraverser/internal/stats"
	"paraverser/internal/workload/spec"
)

// Scale sets how much simulation each experiment performs. Quick keeps
// the full suite under a couple of minutes; Full approaches the paper's
// methodology (scaled from its 1B-instruction windows to what a laptop
// simulates in reasonable time).
type Scale struct {
	// Insts bounds measured main-core instructions per benchmark run;
	// Warmup instructions run first without being measured (the paper's
	// fast-forward).
	Insts  int64
	Warmup int64
	// Benchmarks selects the SPEC subset (nil = all 20).
	Benchmarks []string
	// FaultTrials is the number of injected faults per benchmark in
	// fig. 8; FaultHorizon the detection window in instructions;
	// FaultBenchmarks the benchmarks injected into (nil = the four the
	// paper calls out: bwaves, deepsjeng, imagick, perlbench).
	FaultTrials     int
	FaultHorizon    int64
	FaultBenchmarks []string
	// GAPScale is the Kronecker graph scale (2^scale vertices);
	// GAPEdgeFactor its edges-per-vertex.
	GAPScale      int
	GAPEdgeFactor int
	// ParsecScale is the per-thread element count for the PARSEC suite.
	ParsecScale int
	// ED2PFreqs are the candidate A510 DVFS points for the ED²P search.
	ED2PFreqs []float64
}

// Quick returns the scale used by tests and the benchmark suite.
func Quick() Scale {
	return Scale{
		Insts:  120_000,
		Warmup: 80_000,
		Benchmarks: []string{
			"perlbench", "gcc", "mcf", "deepsjeng", "exchange2",
			"bwaves", "lbm", "imagick",
		},
		FaultTrials:     6,
		FaultHorizon:    250_000,
		FaultBenchmarks: []string{"deepsjeng", "imagick"},
		GAPScale:        9,
		GAPEdgeFactor:   8,
		ParsecScale:     400,
		ED2PFreqs:       []float64{1.4, 2.0},
	}
}

// Full returns the CLI's default scale.
func Full() Scale {
	return Scale{
		Insts:           250_000,
		Warmup:          150_000,
		Benchmarks:      nil,
		FaultTrials:     12,
		FaultHorizon:    600_000,
		FaultBenchmarks: []string{"bwaves", "deepsjeng", "imagick", "perlbench"},
		GAPScale:        11,
		GAPEdgeFactor:   10,
		ParsecScale:     1000,
		ED2PFreqs:       []float64{1.4, 1.6, 2.0},
	}
}

func (sc Scale) benchmarks() []string {
	if len(sc.Benchmarks) > 0 {
		return sc.Benchmarks
	}
	return spec.Names()
}

func (sc Scale) faultBenchmarks() []string {
	if len(sc.FaultBenchmarks) > 0 {
		return sc.FaultBenchmarks
	}
	return []string{"bwaves", "deepsjeng", "imagick", "perlbench"}
}

// progCache holds one singleflight entry per benchmark program;
// generation (working-set initialisation) dominates otherwise, and two
// goroutines racing on an uncached benchmark must not both pay it.
var progCache sync.Map // string -> *progEntry

type progEntry struct {
	once sync.Once
	prog *isa.Program
	err  error
}

func specProg(name string) (*isa.Program, error) {
	v, _ := progCache.LoadOrStore(name, &progEntry{})
	e := v.(*progEntry)
	e.once.Do(func() {
		p, err := spec.ByName(name)
		if err != nil {
			e.err = err
			return
		}
		e.prog, e.err = p.Build(1 << 40)
	})
	return e.prog, e.err
}

// baselineCfg is the no-checking configuration every slowdown figure
// normalises against.
func baselineCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Checkers = nil
	return cfg
}

// submit schedules cfg on one SPEC benchmark at the scale's window.
func (sc Scale) submit(e *Engine, cfg core.Config, bench string) *Future {
	return e.Submit(cfg, specRun(bench, sc.Insts, sc.Warmup))
}

// submitMatrix submits the no-checking baseline and every configuration
// on each benchmark at the scale's window. It returns the baseline
// futures by benchmark and the run futures by label, then benchmark.
func (sc Scale) submitMatrix(e *Engine, configs []NamedConfig, benches []string) (base map[string]*Future, runs map[string]map[string]*Future) {
	base = make(map[string]*Future, len(benches))
	runs = make(map[string]map[string]*Future, len(configs))
	for _, nc := range configs {
		runs[nc.Label] = make(map[string]*Future, len(benches))
	}
	for _, bench := range benches {
		base[bench] = sc.submit(e, baselineCfg(), bench)
		for _, nc := range configs {
			runs[nc.Label][bench] = sc.submit(e, nc.Cfg, bench)
		}
	}
	return base, runs
}

// clean waits for a fault-free run and returns its result. It is the one
// reader of clean runs: a failed run's error is wrapped with the run's
// name (format and args), and a run that raised detections is an error
// too, since with no fault injected a detection is a simulator bug, not
// data. Fault runs read their results with a plain Wait.
func clean(f *Future, format string, args ...any) (*core.Result, error) {
	res, err := f.Wait()
	if err == nil && res.Detections() != 0 {
		err = errors.New("clean run raised detections")
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
	}
	return res, nil
}

// slowdownPct is run's slowdown over base in percent of run time.
func slowdownPct(run, base *core.Result) float64 {
	return (run.TimeNS()/base.TimeNS() - 1) * 100
}

// NamedConfig pairs a label with a system configuration.
type NamedConfig struct {
	Label string
	Cfg   core.Config
}

// SeriesResult is one figure's data: per-benchmark values per
// configuration, plus a geomean row.
type SeriesResult struct {
	Title      string
	Metric     string // e.g. "slowdown %" or "coverage %"
	Benchmarks []string
	Values     map[string]map[string]float64 // config -> bench -> value
	Order      []string                      // config display order
	Notes      []string
}

// Geomean returns the geometric mean of one configuration's slowdown
// ratios; for percentage metrics it first converts back to ratios. An
// empty series — a config that assembled no values at all — returns
// NaN rather than 0: a silent 0 reads as a perfect result in the
// table, exactly the failure mode the PR 2 empty-geomean fix closed,
// while NaN makes the broken assembly visible in the GEOMEAN row.
func (r *SeriesResult) Geomean(config string) float64 {
	vals := r.Values[config]
	xs := make([]float64, 0, len(vals))
	for _, b := range r.Benchmarks {
		if v, ok := vals[b]; ok {
			xs = append(xs, 1+v/100)
		}
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return (stats.Geomean(xs) - 1) * 100
}

// Range returns the min and max value of one configuration, or
// (NaN, NaN) for an empty series (same fail-loud rationale as
// Geomean: stats.MinMax's 0,0 would masquerade as data).
func (r *SeriesResult) Range(config string) (float64, float64) {
	vals := r.Values[config]
	xs := make([]float64, 0, len(vals))
	for _, b := range r.Benchmarks {
		if v, ok := vals[b]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	return stats.MinMax(xs)
}

// Table renders the figure as the text table the CLI prints.
func (r *SeriesResult) Table() string {
	header := append([]string{"benchmark"}, r.Order...)
	t := stats.NewTable(header...)
	for _, b := range r.Benchmarks {
		row := make([]any, 0, len(header))
		row = append(row, b)
		for _, cfg := range r.Order {
			if v, ok := r.Values[cfg][b]; ok {
				row = append(row, fmt.Sprintf("%.2f", v))
			} else {
				row = append(row, "-")
			}
		}
		t.Row(row...)
	}
	gm := make([]any, 0, len(header))
	gm = append(gm, "GEOMEAN")
	for _, cfg := range r.Order {
		gm = append(gm, fmt.Sprintf("%.2f", r.Geomean(cfg)))
	}
	t.Row(gm...)
	out := fmt.Sprintf("%s (%s)\n%s", r.Title, r.Metric, t.String())
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// sortedKeys returns map keys in stable order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
