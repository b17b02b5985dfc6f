package experiments

import (
	"fmt"
	"strings"

	"paraverser/internal/isa/fuzz"
	"paraverser/internal/stats"
)

// FuzzResult is one verifier-screened differential fuzzing campaign:
// the per-seed reports and their aggregate summary.
//
// Fuzz campaigns deliberately bypass the experiment run cache: the
// cache fingerprints Config+Workload simulations for reuse across
// figures, while a fuzz seed's pipeline (generate → screen → execute
// differentially) is keyed by nothing a figure shares and must re-run
// engines the cache would elide. Campaign output is deterministic at
// any worker count, so there is nothing to cache anyway.
type FuzzResult struct {
	Reports []fuzz.SeedReport
	Summary fuzz.Summary
}

// Fuzz runs a fuzzing campaign: seeds independent seed pipelines of
// ~insts-instruction programs, workers-way parallel (<= 0 selects the
// shared engine's worker bound), over the seed stream selected by
// baseSeed. The report list is byte-identical at any worker count or -j
// setting: each seed's pipeline is self-contained and fixes its own
// engine configurations internally.
func Fuzz(seeds, insts, workers int, baseSeed uint64) *FuzzResult {
	if workers <= 0 {
		workers = defaultEngine().Workers()
	}
	reports := fuzz.Campaign(fuzz.Options{
		Seeds:    seeds,
		Insts:    insts,
		Workers:  workers,
		BaseSeed: baseSeed,
	})
	return &FuzzResult{Reports: reports, Summary: fuzz.Summarize(reports)}
}

// Clean reports whether the campaign found no divergences and no
// screening failures — the CI gate condition.
func (r *FuzzResult) Clean() bool {
	return r.Summary.Mismatches == 0 && r.Summary.ScreenFailures == 0
}

// Failures renders one compact line per failing seed — enough to
// replay it in isolation.
func (r *FuzzResult) Failures() string {
	var b strings.Builder
	for i := range r.Reports {
		rep := &r.Reports[i]
		switch {
		case rep.Divergence != nil:
			fmt.Fprintf(&b, "seed %#x: %s: %s", rep.Seed, rep.Divergence.Stage, firstLine(rep.Divergence.Detail))
			if rep.Minimized != nil {
				fmt.Fprintf(&b, " (minimized to %d insts)", len(rep.Minimized.Insts))
			}
			b.WriteString("\n")
		case rep.ScreenFailure != "":
			fmt.Fprintf(&b, "seed %#x: screening never passed: %s\n", rep.Seed, rep.ScreenFailure)
		}
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Table renders the campaign summary and any failures.
func (r *FuzzResult) Table() string {
	s := r.Summary
	t := stats.NewTable("seeds", "static insts", "max bound", "regens", "screen fails", "mismatches")
	t.Row(fmt.Sprint(s.Seeds), fmt.Sprint(s.TotalStatic), fmt.Sprint(s.MaxBound),
		fmt.Sprint(s.Regens), fmt.Sprint(s.ScreenFailures), fmt.Sprint(s.Mismatches))
	out := "verifier-screened differential fuzz campaign\n" + t.String()
	if f := r.Failures(); f != "" {
		out += f
	} else {
		// Output tables are compared byte for byte across versions, so
		// the line keeps its wording: "time-sharding" is the SpecCache
		// stage (live vs record vs replay).
		out += "all seeds agree across engines, strategies, time-sharding and divergent checking\n"
	}
	return out
}
