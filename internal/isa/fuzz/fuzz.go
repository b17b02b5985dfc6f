package fuzz

import (
	"fmt"
	"sync"

	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
)

// Options configures a fuzzing campaign.
type Options struct {
	// Seeds is how many independent seeds to run.
	Seeds int
	// Insts is the per-program instruction target for the generator.
	Insts int
	// Workers bounds campaign parallelism. Results are reported in seed
	// order and are byte-identical at any worker count: each seed's
	// pipeline is self-contained and shares no mutable state.
	Workers int
	// BaseSeed offsets the seed stream (0 picks the default campaign
	// stream), letting CI pin one corpus while exploratory runs roam.
	BaseSeed uint64
}

// maxScreenAttempts bounds per-seed regeneration when a candidate fails
// verifier screening. The generator is built to pass screening; burning
// through this budget means a generator/verifier bug worth surfacing.
const maxScreenAttempts = 8

// SeedReport is the outcome of one seed's generate→screen→execute
// pipeline.
type SeedReport struct {
	Seed     uint64 // the program seed that ran (after regens)
	Insts    int    // static instruction count of the program
	Attempts int    // screening attempts consumed (1 = first try)
	MaxInsts int64  // the verifier's proved dynamic bound
	// Divergence is nil on agreement. ScreenFailure records a seed whose
	// candidates never passed screening (also a bug, but in the
	// generator/verifier pair rather than the engines).
	Divergence    *Divergence
	ScreenFailure string
	// Minimized, on divergence, is the smallest gadget subset that
	// still reproduces it (nil when minimisation could not shrink).
	Minimized *isa.Program
}

// Screen verifies a candidate: accepted iff the verifier reports no
// errors and proves a termination bound within the differential
// executor's budget. It returns the proved bound.
func Screen(p *isa.Program) (int64, error) {
	rep, err := screen(p)
	if err != nil {
		return 0, err
	}
	return rep.MaxInsts, nil
}

// screen is Screen returning the whole verifier report, which the
// differential's proof oracle checks against execution.
func screen(p *isa.Program) (*verify.Report, error) {
	rep := verify.Verify(p)
	for _, f := range rep.Findings {
		if f.Sev == verify.SevError {
			return nil, fmt.Errorf("verifier error: %s", f)
		}
	}
	if rep.MaxInsts <= 0 {
		return nil, fmt.Errorf("no proved termination bound")
	}
	if rep.MaxInsts > dynLimit {
		return nil, fmt.Errorf("proved bound %d exceeds differential budget %d", rep.MaxInsts, dynLimit)
	}
	return rep, nil
}

// runSeed is one seed's full pipeline: generate, screen (with bounded
// regeneration), execute differentially, minimise on divergence.
func runSeed(seed uint64, insts int) SeedReport {
	rep := SeedReport{Seed: seed}
	cur := seed
	var tmpl *Template
	var prog *isa.Program
	var vrep *verify.Report
	for attempt := 1; ; attempt++ {
		rep.Attempts = attempt
		tmpl = Generate(cur, insts)
		prog = tmpl.Program()
		var err error
		if vrep, err = screen(prog); err == nil {
			rep.Seed = cur
			rep.MaxInsts = vrep.MaxInsts
			break
		}
		if attempt >= maxScreenAttempts {
			rep.ScreenFailure = err.Error()
			return rep
		}
		cur = Mix(cur)
	}
	rep.Insts = len(prog.Insts)
	if d := differential(prog, vrep, rep.Seed); d != nil {
		rep.Divergence = d
		rep.Minimized = Minimize(tmpl, rep.Seed, d.Stage)
	}
	return rep
}

// Campaign runs Seeds independent pipelines and returns their reports
// in seed order. The output is deterministic at any worker count.
func Campaign(opt Options) []SeedReport {
	if opt.Seeds <= 0 {
		return nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > opt.Seeds {
		workers = opt.Seeds
	}
	// Seed stream: splitmix over the index so adjacent seeds are
	// decorrelated and a single seed can be replayed in isolation.
	seeds := make([]uint64, opt.Seeds)
	base := rng(opt.BaseSeed ^ 0x5EED5EED5EED5EED)
	for i := range seeds {
		seeds[i] = base.next()
	}

	out := make([]SeedReport, opt.Seeds)
	var wg sync.WaitGroup
	next := make(chan int, opt.Seeds)
	for i := 0; i < opt.Seeds; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = runSeed(seeds[i], opt.Insts)
			}
		}()
	}
	wg.Wait()
	return out
}

// Summary condenses a campaign for display and exit-status decisions.
type Summary struct {
	Seeds          int
	Mismatches     int
	ScreenFailures int
	Regens         int // seeds that needed more than one screening attempt
	TotalStatic    int // static instructions across all programs
	MaxBound       int64
}

// Summarize folds a report list into aggregate counts.
func Summarize(reports []SeedReport) Summary {
	s := Summary{Seeds: len(reports)}
	for i := range reports {
		r := &reports[i]
		switch {
		case r.ScreenFailure != "":
			s.ScreenFailures++
		case r.Divergence != nil:
			s.Mismatches++
		}
		if r.Attempts > 1 {
			s.Regens++
		}
		s.TotalStatic += r.Insts
		if r.MaxInsts > s.MaxBound {
			s.MaxBound = r.MaxInsts
		}
	}
	return s
}
