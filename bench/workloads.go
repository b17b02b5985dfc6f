package main

import (
	"fmt"
	"strconv"

	"paraverser/internal/core"
	"paraverser/internal/experiments"
	"paraverser/internal/isa"
	"paraverser/internal/isa/fuzz"
	"paraverser/internal/workload/gap"
	"paraverser/internal/workload/parsec"
	"paraverser/internal/workload/spec"
)

// A workload is one CLI invocation the benchmark times end to end, plus
// what the traced run needs to time the same work layer by layer: the
// experiment entry points the CLI calls for it and the programs it
// simulates.
type workload struct {
	name string
	why  string
	// args are the CLI arguments at seed s with n simulation workers.
	args func(s int64, n int) []string
	// pass lists text every correct run prints.
	pass []string
	// programs builds the workload's input programs, with their
	// simulation windows, through the public generators.
	programs func(s int64) ([]core.Workload, error)
	// probes is how many of those programs, evenly spaced, feed the
	// layer probes.
	probes int
	// entries are the experiment entry points the CLI calls.
	entries func(s int64, n int) []entry
}

// entry is one experiment entry point; its result is checked by type.
type entry struct {
	name string
	run  func() (any, error)
}

// Each CLI run takes 4-8 s on a shared 2-vCPU host, so a 30 s run of the
// benchmark holds three to six and their median shrugs off one slowed by
// other tenants. `paraverser -quick all` is not a workload for that
// reason: one run takes 11-16 s there and holds 1.5 GB, and its spread
// over ten seeds exceeded the largest bound BENCHMARK.json may set.
const (
	campaignTrials = 160
	fuzzSeeds      = 1024
	fuzzInsts      = 200 // the CLI's -fuzz-insts default
)

// multicoreExperiments are the multicore workload's figures, which the CLI
// runs one after another.
var multicoreExperiments = []string{"fig9", "fig10", "fig11"}

var workloads = []workload{
	{
		name: "multicore",
		why:  "fig9-11 at the quick scale: GAP/PARSEC multi-hart kernels and 4-core SPEC mixes over the NoC; the only multi-hart and NoC-traffic runs",
		args: func(s int64, n int) []string {
			return append([]string{"-quick", "-j", strconv.Itoa(n), "-seed", strconv.FormatInt(s, 10)}, multicoreExperiments...)
		},
		pass: completedLines(multicoreExperiments...),
		programs: func(int64) ([]core.Workload, error) {
			sc := experiments.Quick()
			// fig10's mixes draw on all 20 SPEC programs, not only the
			// quick subset.
			ws, err := specPrograms(spec.Names(), sc.Insts, sc.Warmup)
			if err != nil {
				return nil, err
			}
			return append(ws, gapParsecPrograms(sc)...), nil
		},
		probes:  4,
		entries: multicoreEntries,
	},
	{
		name: "full-fig6",
		why:  "the paper's headline figure at the default scale: 160 runs + 80 cache hits; timing and checker replay dominate, SpecCache removes emulation",
		args: func(s int64, n int) []string {
			return []string{"-j", strconv.Itoa(n), "-seed", strconv.FormatInt(s, 10), "fig6"}
		},
		pass: append(completedLines("fig6"), "GEOMEAN"),
		programs: func(int64) ([]core.Workload, error) {
			sc := experiments.Full()
			return specPrograms(spec.Names(), sc.Insts, sc.Warmup)
		},
		probes: 4,
		entries: func(int64, int) []entry {
			return []entry{{"fig6", func() (any, error) { return experiments.Fig6(experiments.Full()) }}}
		},
	},
	{
		name: "campaign",
		why:  "fault trials bypass the run cache and SpecCache: per-instruction emulation and recovery; engine and SpecCache changes should not move it",
		args: func(s int64, n int) []string {
			return []string{"-quick", "-j", strconv.Itoa(n), "-seed", strconv.FormatInt(s, 10),
				"-campaign-trials", strconv.Itoa(campaignTrials), "campaign"}
		},
		pass: append(completedLines("campaign"), fmt.Sprintf("fault-injection campaign: %d trials", campaignTrials)),
		programs: func(int64) ([]core.Workload, error) {
			sc := experiments.Quick()
			return specPrograms(sc.FaultBenchmarks, sc.FaultHorizon, 0)
		},
		probes: 2,
		entries: func(s int64, _ int) []entry {
			return []entry{{"campaign", func() (any, error) {
				return experiments.Campaign(experiments.Quick(), s, campaignTrials, 0)
			}}}
		},
	},
	{
		name: "fuzz",
		why:  "1024 tiny screened programs: many short core.Run calls, so system construction and GC dominate; the only verify/fuzz volume",
		args: func(s int64, n int) []string {
			return []string{"-j", strconv.Itoa(n), "-seed", strconv.FormatInt(s, 10),
				"-fuzz-seeds", strconv.Itoa(fuzzSeeds), "fuzz"}
		},
		pass: append(completedLines("fuzz"), "all seeds agree"),
		programs: func(s int64) ([]core.Workload, error) {
			ws := make([]core.Workload, fuzzSeeds)
			x := uint64(s)
			for i := range ws {
				x = fuzz.Mix(x)
				ws[i] = core.Workload{Name: fmt.Sprintf("fuzz.%d", i), Prog: fuzz.Generate(x, fuzzInsts).Program()}
			}
			return ws, nil
		},
		probes: 256,
		entries: func(s int64, n int) []entry {
			return []entry{{"fuzz", func() (any, error) {
				return experiments.Fuzz(fuzzSeeds, fuzzInsts, n, uint64(s)), nil
			}}}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func completedLines(names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "[" + n + " completed in "
	}
	return out
}

func specPrograms(names []string, insts, warmup int64) ([]core.Workload, error) {
	ws := make([]core.Workload, len(names))
	for i, name := range names {
		p, err := spec.ByName(name)
		if err != nil {
			return nil, err
		}
		// The experiments build every SPEC program with this open-ended
		// iteration count and bound it by the window.
		prog, err := p.Build(1 << 40)
		if err != nil {
			return nil, err
		}
		ws[i] = core.Workload{Name: name, Prog: prog, MaxInsts: insts, WarmupInsts: warmup}
	}
	return ws, nil
}

// gapParsecPrograms builds fig. 9's GAP kernels and PARSEC suite the way
// the experiments do.
func gapParsecPrograms(sc experiments.Scale) []core.Workload {
	g := gap.Kronecker(sc.GAPScale, sc.GAPEdgeFactor, 1)
	var ws []core.Workload
	add := func(name string, prog *isa.Program) {
		ws = append(ws, core.Workload{Name: name, Prog: prog, MaxInsts: sc.Insts * 3})
	}
	bfs, _ := gap.BFS(g, 0)
	pr, _ := gap.PageRank(g, 4)
	sssp, _ := gap.SSSP(g, 0)
	cc, _ := gap.CC(g)
	tc, _ := gap.TC(g)
	bc, _ := gap.BC(g, 0)
	add("gap.bfs", bfs)
	add("gap.pr", pr)
	add("gap.sssp", sssp)
	add("gap.cc", cc)
	add("gap.tc", tc)
	add("gap.bc", bc)
	for _, k := range parsec.Kernels(sc.ParsecScale) {
		add("parsec."+k.Name, k.Prog)
	}
	return ws
}

// multicoreEntries are the entry points of the multicore workload's
// figures, in the CLI's order.
func multicoreEntries(int64, int) []entry {
	sc := experiments.Quick()
	return []entry{
		{"fig9", func() (any, error) { return experiments.Fig9(sc) }},
		{"fig10", func() (any, error) { return experiments.Fig10(sc) }},
		{"fig11", func() (any, error) { return experiments.Fig11(sc) }},
	}
}
