// Command paraverser regenerates the paper's tables and figures and runs
// ad-hoc checking experiments.
//
// Usage:
//
//	paraverser [flags] <experiment>...
//
// Experiments: table1 fig6 fig7 fig8 fig9 fig10 fig11 power area
// opportunity ablation campaign divergent strategies fuzz all
//
// The fuzz experiment runs the verifier-screened differential program
// fuzzer (-fuzz-seeds seeds of ~-fuzz-insts instructions, streamed
// from -seed): every generated program must pass the abstract
// interpreter's screening, then keep its proofs on a real run (no hart
// past the proved instruction bound, every load and store inside its
// proved address interval), verify clean under every checker strategy
// (divergent included), and render identically without a SpecCache,
// recording into one, and replaying from it. Any failure exits 1 with
// a minimized reproduction. Output is
// byte-identical at any -j setting. Fuzz runs bypass the shared result
// cache.
//
// Flags select the simulation scale; the default "full" scale runs each
// benchmark for 250k measured instructions after a 150k-instruction
// warmup (scaled down from the paper's 1B-instruction windows after 10B
// fast-forward).
//
// Checker strategies are fixed per configuration: every figure runs the
// paper's lockstep scheme, and the "strategies" and "divergent"
// experiments compare the strategies head to head.
//
// -j N bounds the simulation worker pool (default GOMAXPROCS). "all"
// runs every experiment concurrently over the shared result cache, so
// baselines and DVFS sweeps shared between figures are simulated exactly
// once; output is still printed in the fixed experiment order. Each
// simulation runs on one goroutine, and fault campaigns and the fuzz
// experiment run at the same bound, so -j is the only parallelism
// knob.
//
// Observability: -metrics-out / -metrics-prom export the deterministic
// run metrics (JSON / Prometheus text) on exit, -trace records a
// bounded segment trace in Chrome trace_event JSON, -progress prints a
// live status line to stderr. `paraverser metrics [-trace trace.json]
// metrics.json` renders a saved snapshot and cross-checks it against a
// trace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"paraverser/internal/experiments"
	"paraverser/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "metrics" {
		return runMetricsCmd(args[1:])
	}
	fs := flag.NewFlagSet("paraverser", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use the reduced test scale (~1 minute)")
	insts := fs.Int64("insts", 0, "override measured instructions per benchmark")
	warmup := fs.Int64("warmup", 0, "override warmup instructions per benchmark")
	benches := fs.String("benchmarks", "", "comma-separated SPEC subset (default: all 20)")
	trials := fs.Int("fault-trials", 0, "override fig. 8 fault injections per benchmark")
	seed := fs.Int64("seed", 1, "base seed for the fault-injection campaign (reproducible verdict tables)")
	campaignTrials := fs.Int("campaign-trials", 0, "override campaign trial count (default: 4x fault-trials)")
	fuzzSeeds := fs.Int("fuzz-seeds", 256, "seeds for the fuzz experiment (deterministic at any -j)")
	fuzzInsts := fs.Int("fuzz-insts", 200, "per-program instruction target for the fuzz experiment")
	workers := fs.Int("j", 0, "concurrent simulation runs and campaign trials (0 = GOMAXPROCS)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	metricsOut := fs.String("metrics-out", "", "write the deterministic run-metrics snapshot as JSON to this file on exit")
	metricsProm := fs.String("metrics-prom", "", "write the run metrics in Prometheus text format to this file on exit")
	traceOut := fs.String("trace", "", "record a segment trace and write Chrome trace_event JSON to this file on exit")
	traceCap := fs.Int("trace-cap", 1<<16, "segment-trace ring capacity (excess events are dropped and counted)")
	progressFlag := fs.Bool("progress", false, "print a live progress line (segments/s, cache hit rate, ETA) to stderr")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: paraverser [flags] <experiment>...\n")
		fmt.Fprintf(fs.Output(), "       paraverser metrics [-trace trace.json] metrics.json\n")
		fmt.Fprintf(fs.Output(), "experiments: table1 fig6 fig7 fig8 fig9 fig10 fig11 power area opportunity ablation campaign divergent strategies fuzz all\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paraverser: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paraverser: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paraverser: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paraverser: -memprofile: %v\n", err)
			}
		}()
	}

	sc := experiments.Full()
	if *quick {
		sc = experiments.Quick()
	}
	if *insts > 0 {
		sc.Insts = *insts
	}
	if *warmup > 0 {
		sc.Warmup = *warmup
	}
	if *benches != "" {
		sc.Benchmarks = strings.Split(*benches, ",")
	}
	if *trials > 0 {
		sc.FaultTrials = *trials
	}
	// Range checks for the remaining numeric knobs: a negative count has
	// no meaning anywhere below (0 everywhere selects the default), so
	// reject it up front with exit 2 rather than letting it reach an
	// engine that would misbehave quietly.
	for _, knob := range []struct {
		name string
		val  int64
	}{
		{"-j", int64(*workers)},
		{"-fault-trials", int64(*trials)},
		{"-campaign-trials", int64(*campaignTrials)},
		{"-insts", *insts},
		{"-warmup", *warmup},
	} {
		if knob.val < 0 {
			fmt.Fprintf(os.Stderr, "paraverser: %s must be >= 0 (got %d)\n", knob.name, knob.val)
			return 2
		}
	}
	if *traceCap < 1 {
		fmt.Fprintf(os.Stderr, "paraverser: -trace-cap must be >= 1 (got %d)\n", *traceCap)
		return 2
	}
	// The fuzz knobs have no "default" zero: a campaign of zero seeds or
	// zero-instruction programs is a mistake, not a request.
	if *fuzzSeeds < 1 {
		fmt.Fprintf(os.Stderr, "paraverser: -fuzz-seeds must be >= 1 (got %d)\n", *fuzzSeeds)
		return 2
	}
	if *fuzzInsts < 1 {
		fmt.Fprintf(os.Stderr, "paraverser: -fuzz-insts must be >= 1 (got %d)\n", *fuzzInsts)
		return 2
	}
	experiments.SetWorkers(*workers)

	var trace *obs.Trace
	if *traceOut != "" {
		trace = obs.NewTrace(*traceCap)
		experiments.SetTrace(trace)
		defer experiments.SetTrace(nil)
	}
	var prog *obs.Progress
	if *progressFlag {
		prog = obs.NewProgress(os.Stderr, time.Second, experiments.Progress)
		prog.Start()
	}
	// finish stops the progress line and, on success, writes the
	// requested observability exports; export failures turn a clean run
	// into exit 1 so CI can trust the artifacts exist.
	finish := func(code int) int {
		if prog != nil {
			prog.Stop()
		}
		if code != 0 {
			return code
		}
		if trace != nil {
			if err := trace.WriteFile(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "paraverser: -trace: %v\n", err)
				return 1
			}
		}
		if *metricsOut != "" || *metricsProm != "" {
			snap := experiments.MetricsSnapshot()
			if *metricsOut != "" {
				if err := snap.WriteSnapshotFile(*metricsOut); err != nil {
					fmt.Fprintf(os.Stderr, "paraverser: -metrics-out: %v\n", err)
					return 1
				}
			}
			if *metricsProm != "" {
				f, err := os.Create(*metricsProm)
				if err != nil {
					fmt.Fprintf(os.Stderr, "paraverser: -metrics-prom: %v\n", err)
					return 1
				}
				err = snap.WritePrometheus(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "paraverser: -metrics-prom: %v\n", err)
					return 1
				}
			}
		}
		return 0
	}

	names := fs.Args()
	concurrent := false
	if len(names) == 1 && names[0] == "all" {
		names = allExperiments
		concurrent = true
	}
	camp := campaignOpts{seed: *seed, trials: *campaignTrials, fuzzSeeds: *fuzzSeeds, fuzzInsts: *fuzzInsts}

	type report struct {
		text string
		dur  time.Duration
		err  error
	}
	reports := make([]report, len(names))
	if concurrent {
		// Every experiment submits its run matrix into the shared engine
		// at once: simulations shared across figures (baselines, the DVFS
		// sweep) run once, and the pool stays saturated across experiment
		// boundaries. Output order stays fixed regardless of completion
		// order.
		done := make(chan struct{})
		for i, name := range names {
			go func(i int, name string) {
				defer func() { done <- struct{}{} }()
				start := time.Now()
				text, err := runExperiment(name, sc, camp)
				reports[i] = report{text, time.Since(start), err}
			}(i, name)
		}
		for range names {
			<-done
		}
	} else {
		for i, name := range names {
			start := time.Now()
			text, err := runExperiment(name, sc, camp)
			reports[i] = report{text, time.Since(start), err}
			if err != nil {
				fmt.Fprintf(os.Stderr, "paraverser: %s: %v\n", name, err)
				return finish(1)
			}
			fmt.Print(text)
			fmt.Printf("[%s completed in %v]\n\n", name, reports[i].dur.Round(time.Millisecond))
		}
		return finish(0)
	}

	for i, name := range names {
		r := reports[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "paraverser: %s: %v\n", name, r.err)
			return finish(1)
		}
		fmt.Print(r.text)
		fmt.Printf("[%s completed in %v]\n\n", name, r.dur.Round(time.Millisecond))
	}
	return finish(0)
}

// runMetricsCmd implements `paraverser metrics [-trace trace.json]
// metrics.json`: render a saved metrics snapshot as a summary table
// and, with -trace, cross-check the trace's segment accounting
// (stored events + dropped) against the snapshot's segments_total.
func runMetricsCmd(args []string) int {
	fs := flag.NewFlagSet("paraverser metrics", flag.ContinueOnError)
	traceFile := fs.String("trace", "", "cross-check segment counts against this Chrome trace JSON")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: paraverser metrics [-trace trace.json] metrics.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	snap, err := obs.ReadSnapshotFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraverser: metrics: %v\n", err)
		return 1
	}
	fmt.Print(snap.Summary())
	if *traceFile == "" {
		return 0
	}
	events, dropped, err := obs.ReadTraceFile(*traceFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraverser: metrics: %v\n", err)
		return 1
	}
	var segs uint64
	for i := range events {
		if events[i].Cat == obs.CatSegment {
			segs++
		}
	}
	total := segs + dropped[obs.CatSegment]
	want := snap.CounterValue("paraverser_segments_total")
	if total != want {
		fmt.Fprintf(os.Stderr,
			"paraverser: metrics: trace accounts for %d segments (%d stored + %d dropped), snapshot says %d\n",
			total, segs, dropped[obs.CatSegment], want)
		return 1
	}
	fmt.Printf("trace: %d segment events + %d dropped = %d, matches segments_total\n",
		segs, dropped[obs.CatSegment], want)
	return 0
}

// allExperiments is what the "all" alias expands to, in output order.
var allExperiments = []string{"table1", "area", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "power", "opportunity", "ablation", "campaign", "divergent", "strategies"}

// campaignOpts carries the campaign and fuzz subcommands' knobs. Both
// run at the -j worker bound.
type campaignOpts struct {
	seed   int64
	trials int
	// fuzz experiment: seed count and per-program instruction target.
	fuzzSeeds int
	fuzzInsts int
}

// runExperiment renders one experiment's report. It returns the output
// rather than printing so concurrent "all" runs can't interleave tables.
func runExperiment(name string, sc experiments.Scale, camp campaignOpts) (string, error) {
	var b strings.Builder
	switch name {
	case "campaign":
		r, err := experiments.Campaign(sc, camp.seed, camp.trials, 0)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "fault-injection campaign: %d trials, seed %d\n\n", len(r.Trials), camp.seed)
		fmt.Fprintln(&b, r.TrialTable())
		fmt.Fprintln(&b, r.Table())
	case "divergent":
		r, err := experiments.Divergent(sc, camp.seed, camp.trials)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "divergent-vs-lockstep study: %d paired trials, seed %d\n\n", len(r.Lockstep.Trials), camp.seed)
		fmt.Fprintln(&b, r.Table())
	case "strategies":
		r, err := experiments.Strategies(sc, camp.seed, camp.trials)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "checker-strategy head-to-head, seed %d\n\n", camp.seed)
		fmt.Fprintln(&b, r.Table())
	case "fuzz":
		r := experiments.Fuzz(camp.fuzzSeeds, camp.fuzzInsts, 0, uint64(camp.seed))
		fmt.Fprintf(&b, "differential fuzz: %d seeds, ~%d insts each, base seed %d\n\n",
			camp.fuzzSeeds, camp.fuzzInsts, camp.seed)
		fmt.Fprintln(&b, r.Table())
		if !r.Clean() {
			return "", fmt.Errorf("fuzz campaign found divergences:\n%s", strings.TrimRight(r.Failures(), "\n"))
		}
	case "table1":
		fmt.Fprintln(&b, experiments.Table1())
	case "area":
		fmt.Fprintln(&b, experiments.Area().Table())
	case "fig6":
		r, err := experiments.Fig6(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, r.Table())
	case "fig7":
		slow, cov, err := experiments.Fig7(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, slow.Table())
		fmt.Fprintln(&b, cov.Table())
	case "fig8":
		r, err := experiments.Fig8(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, r.Coverage.Table())
	case "fig9":
		r, err := experiments.Fig9(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, r.Table())
	case "fig10":
		r, err := experiments.Fig10(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, r.Table())
	case "fig11":
		r, err := experiments.Fig11(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, r.Table())
	case "power":
		r, err := experiments.Power(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, r.Table())
	case "opportunity":
		r, err := experiments.Opportunity(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, r.Table())
	case "ablation":
		r, err := experiments.Ablation(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, r.Table())
	default:
		return "", fmt.Errorf("unknown experiment %q", name)
	}
	return b.String(), nil
}
