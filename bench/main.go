// Command bench is the repository's benchmark: it times the paraverser
// CLI end to end on four workloads and, in a separate traced run, each
// layer of the simulator. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload W] [-seed S] [-reps N | -seconds T] [-trace 0|1]
//	bash bench/run.sh -baseline REV [-pairs N] [-workload W]
//	bash bench/run.sh -diff OLD.json NEW.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:])) }

// usageError is a bad flag or argument: exit 2 with one line.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	reps     int
	seconds  float64
	trace    int
	baseline string
	pairs    int
	diff     bool
	child    string
	outDir   string
	args     []string
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed, passed to the CLI")
	fs.IntVar(&o.reps, "reps", 5, "CLI runs per workload")
	fs.Float64Var(&o.seconds, "seconds", 0, "when > 0, measure each workload for this long, set-up included, instead of -reps CLI runs")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (default: both)")
	fs.StringVar(&o.baseline, "baseline", "", "compare against this git revision, built with this benchmark code")
	fs.IntVar(&o.pairs, "pairs", 10, "parent/change pairs for -baseline")
	fs.BoolVar(&o.diff, "diff", false, "compare two results files given as arguments")
	fs.StringVar(&o.child, "child", "", "internal: run as the set-up or traced child")
	fs.StringVar(&o.outDir, "out", "", "internal: the traced child's output directory")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	o.args = fs.Args()
	err := dispatch(o)
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	default:
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
}

func dispatch(o options) error {
	var ws []*workload
	if o.workload == "" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := workloadByName(o.workload)
		if err != nil {
			return usageError{err.Error()}
		}
		ws = []*workload{w}
	}
	switch o.child {
	case "":
	case "setup":
		_, build, predecode, err := setUp(ws[0], o.seed)
		if err == nil {
			fmt.Println((build + predecode).Seconds())
		}
		return err
	case "trace":
		return runTrace(os.Stdout, ws[0], o.seed, runtime.GOMAXPROCS(0), o.outDir)
	default:
		return usageError{fmt.Sprintf("unknown -child %q", o.child)}
	}
	switch {
	case o.reps < 1:
		return usageError{fmt.Sprintf("-reps must be >= 1 (got %d)", o.reps)}
	case o.seconds < 0:
		return usageError{fmt.Sprintf("-seconds must be >= 0 (got %v)", o.seconds)}
	case o.trace < -1 || o.trace > 1:
		return usageError{fmt.Sprintf("-trace must be 0 or 1 (got %d)", o.trace)}
	case o.pairs < 1:
		return usageError{fmt.Sprintf("-pairs must be >= 1 (got %d)", o.pairs)}
	case o.diff && len(o.args) != 2:
		return usageError{"-diff takes two results files"}
	case !o.diff && len(o.args) != 0:
		return usageError{fmt.Sprintf("unexpected argument %q", o.args[0])}
	}
	if o.diff {
		return diffResults(os.Stdout, o.args[0], o.args[1])
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	ctx := context.Background()
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var rev string
	if o.baseline != "" {
		if rev, err = resolveRev(root, o.baseline); err != nil {
			return usageError{fmt.Sprintf("-baseline %q: not a commit of this repository", o.baseline)}
		}
	}
	cli, err := buildCLI(ctx, root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	e := env{cli: cli, bench: self, procs: runtime.NumCPU()}
	if rev != "" {
		return compareBaseline(ctx, root, out, e, rev, o.pairs, ws, o.seed)
	}

	res := &results{Host: hostInfo(root, e.procs), Seed: o.seed, Workloads: make(map[string]*workloadResult)}
	for _, w := range ws {
		wr := &workloadResult{}
		if o.trace != 1 {
			wr.E2E = measureE2E(ctx, e, w, o.seed, plan{setupReps, setupSeconds, o.reps, o.seconds})
		}
		if o.trace != 0 {
			wr.Trace = measureTrace(ctx, e, w, o.seed, out)
		}
		wr.summarise()
		res.Workloads[w.name] = wr
	}
	if err := writeJSON(filepath.Join(out, "results.json"), res); err != nil {
		return err
	}
	report := io.Writer(os.Stdout)
	if o.workload != "" {
		report = os.Stderr // stdout carries only the result line
	}
	res.print(report)
	if o.workload != "" {
		line, err := json.Marshal(res.Workloads[o.workload].line(o.trace))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	for _, wr := range res.Workloads {
		if wr.Failed > 0 {
			return fmt.Errorf("%d of %d operations failed; see bench/out/results.json", wr.Failed, wr.Attempted)
		}
	}
	return nil
}

// findRoot locates the repository root from the working directory: the
// root itself, or its bench directory.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "paraverser")); err == nil && st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root or its bench directory: cmd/paraverser not found")
}

// buildCLI builds root's ./cmd/paraverser (with its default.pgo) into
// root/.bench_build and returns the binary's path.
func buildCLI(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "paraverser")
	return bin, goBuild(ctx, root, "-o", bin, "./cmd/paraverser")
}

func goBuild(ctx context.Context, dir string, args ...string) error {
	cmd := exec.CommandContext(ctx, "go", append([]string{"build"}, args...)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
	}
	return nil
}

// host is what a result depends on besides the code: results from
// different hosts are not compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func hostInfo(root string, procs int) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: procs, Go: runtime.Version(), Commit: "unknown"}
	if c, err := gitOut(root, "rev-parse", "--short=12", "HEAD"); err == nil {
		h.Commit = c
		st, err := gitOut(root, "status", "--porcelain")
		h.Dirty = err == nil && st != ""
	}
	return h
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

type results struct {
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	// Metrics holds every metric measured, by name, with its unit.
	Metrics map[string]valueUnit `json:"metrics"`
	tally
	E2E   *e2eResult   `json:"e2e,omitempty"`
	Trace *traceResult `json:"trace,omitempty"`
	// Missing lists the measured part's metrics that have no value.
	Missing []string `json:"missing,omitempty"`
}

func (wr *workloadResult) summarise() {
	wr.Metrics = make(map[string]valueUnit)
	wr.tally, wr.Missing = tally{}, nil
	add := func(specs []metricSpec, values map[string]float64, t tally) {
		m, missing := withUnits(specs, values)
		for k, v := range m {
			wr.Metrics[k] = v
		}
		wr.add(t)
		wr.Missing = append(wr.Missing, missing...)
	}
	if r := wr.E2E; r != nil {
		add(e2eSpecs, r.metrics(), r.tally)
		for k, v := range r.Fidelity {
			wr.Metrics[k] = valueUnit{v, fidelityUnit}
		}
	}
	if r := wr.Trace; r != nil {
		add(layerSpecs, r.Metrics, r.tally)
	}
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// line holds the end-to-end metrics when trace is 0 and the per-layer
// ones when it is 1; with both measured, all of them.
func (wr *workloadResult) line(trace int) resultLine {
	var specs []metricSpec
	if trace != 1 {
		specs = append(specs, e2eSpecs...)
	}
	if trace != 0 {
		specs = append(specs, layerSpecs...)
	}
	l := resultLine{Correct: wr.Failed == 0 && len(wr.Missing) == 0, Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: make(map[string]valueUnit, len(specs))}
	for _, s := range specs {
		if v, ok := wr.Metrics[s.name]; ok {
			l.Metrics[s.name] = v
		}
	}
	return l
}

func (r *results) print(w io.Writer) {
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, commit %s (dirty %v); seed %d\n",
		r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Go, r.Host.Commit, r.Host.Dirty, r.Seed)
	for _, n := range sortedKeys(r.Workloads) {
		wr := r.Workloads[n]
		fmt.Fprintf(w, "\n%s: %d attempted, %d failed\n", n, wr.Attempted, wr.Failed)
		for _, p := range append(wr.Problems, wr.Missing...) {
			fmt.Fprintf(w, "  problem: %s\n", p)
		}
		for _, k := range sortedKeys(wr.Metrics) {
			v := wr.Metrics[k]
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, v.Value, v.Unit)
		}
		if e := wr.E2E; e != nil && len(e.Wall) > 0 {
			fmt.Fprintf(w, "  (%d CLI runs; wall IQR %.1f%% of median; digest %s)\n", len(e.Wall), 100*relIQR(e.Wall), e.Digest)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
