package experiments

import (
	"fmt"

	"paraverser/internal/core"
	"paraverser/internal/isa"
	"paraverser/internal/workload/gap"
	"paraverser/internal/workload/parsec"
)

// gapPrograms builds the six GAP kernels over a Kronecker graph.
func gapPrograms(sc Scale) []core.Workload {
	g := gap.Kronecker(sc.GAPScale, sc.GAPEdgeFactor, 1)
	mk := func(name string, prog *isa.Program) core.Workload {
		return core.Workload{Name: "gap." + name, Prog: prog, MaxInsts: sc.Insts * 3}
	}
	bfs, _ := gap.BFS(g, 0)
	pr, _ := gap.PageRank(g, 4)
	sssp, _ := gap.SSSP(g, 0)
	cc, _ := gap.CC(g)
	tc, _ := gap.TC(g)
	bc, _ := gap.BC(g, 0)
	return []core.Workload{
		mk("bfs", bfs), mk("pr", pr), mk("sssp", sssp),
		mk("cc", cc), mk("tc", tc), mk("bc", bc),
	}
}

// fig9Workloads assembles the full GAP + PARSEC workload list.
func fig9Workloads(sc Scale) []core.Workload {
	ws := gapPrograms(sc)
	for _, k := range parsec.Kernels(sc.ParsecScale) {
		ws = append(ws, core.Workload{Name: "parsec." + k.Name, Prog: k.Prog, MaxInsts: sc.Insts * 3})
	}
	return ws
}

// Fig9 reproduces the data-oriented and parallel-workload figure:
// full-coverage slowdown of the GAP kernels and the two-threaded PARSEC
// kernels with 1-4 A510 checkers per main core.
func Fig9(sc Scale) (*SeriesResult, error) { return fig9(defaultEngine(), sc) }

func fig9(e *Engine, sc Scale) (*SeriesResult, error) {
	r := &SeriesResult{
		Title:  "Fig. 9: full-coverage slowdown, GAP and PARSEC, A510@2GHz checkers per main core",
		Metric: "slowdown % vs no-checking baseline",
		Values: make(map[string]map[string]float64),
	}
	counts := []int{1, 2, 3, 4}
	for _, n := range counts {
		label := fmt.Sprintf("%dxA510", n)
		r.Order = append(r.Order, label)
		r.Values[label] = make(map[string]float64)
	}

	ws := fig9Workloads(sc)
	baseF := make([]*Future, len(ws))
	runF := make(map[int][]*Future, len(counts))
	for _, n := range counts {
		runF[n] = make([]*Future, len(ws))
	}
	for i, w := range ws {
		r.Benchmarks = append(r.Benchmarks, w.Name)
		baseF[i] = e.Submit(baselineCfg(), []core.Workload{w})
		for _, n := range counts {
			runF[n][i] = e.Submit(core.DefaultConfig(a510Spec(n, 2.0)), []core.Workload{w})
		}
	}

	for i, w := range ws {
		base, err := clean(baseF[i], "fig9 baseline %s", w.Name)
		if err != nil {
			return nil, err
		}
		for _, n := range counts {
			res, err := clean(runF[n][i], "fig9 %dxA510 %s", n, w.Name)
			if err != nil {
				return nil, err
			}
			r.Values[fmt.Sprintf("%dxA510", n)][w.Name] = slowdownPct(res, base)
		}
	}
	r.Notes = append(r.Notes,
		"paper: GAP so memory-bound that 2 A510s suffice except PageRank; PARSEC ~7.6% with 3 A510s")
	return r, nil
}
