package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"paraverser/internal/core"
)

// childTimeout bounds one child process, so a hung simulation cannot
// outlive the run that started it.
const childTimeout = 170 * time.Second

// A run times the workload's set-up in at least setupReps fresh
// children, adding more until setupSeconds have passed, so a set-up of
// milliseconds still gets a steady median.
const (
	setupReps    = 3
	setupSeconds = 1.0
)

// plan sizes one untraced measurement.
type plan struct {
	setups       int     // set-up children: at least this many,
	setupSeconds float64 // and more until this long has passed
	reps         int     // CLI runs, or when seconds > 0,
	// seconds bounds the whole measurement, set-up included: a CLI run
	// starts only while the median run so far still fits (at least one).
	seconds float64
}

// env is what a run needs to start children: the CLI binary, the bench
// binary (for its set-up and traced children) and the worker count.
type env struct {
	cli, bench string
	procs      int
}

// sample is one finished child process.
type sample struct {
	wall, cpu float64 // seconds
	rssMB     float64
	out       string
}

// runChild runs bin with GOMAXPROCS set to the run's worker count and
// returns its resource usage and standard output. A non-zero exit is an
// error carrying the child's standard error.
func (e env) runChild(ctx context.Context, bin string, args ...string) (sample, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.procs))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(start).Seconds(), out: stdout.String()}
	if ru, ok := sysUsage(cmd); ok {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		return s, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	return s, nil
}

func sysUsage(cmd *exec.Cmd) (*syscall.Rusage, bool) {
	if cmd.ProcessState == nil {
		return nil, false
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, ok
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// e2eResult is the untraced measurement of one workload.
type e2eResult struct {
	Wall   []float64 `json:"wall_s"`
	CPU    []float64 `json:"cpu_s"`
	RSS    []float64 `json:"peak_rss_mb"`
	Setup  []float64 `json:"setup_s"`
	Digest string    `json:"digest"`
	// Fidelity is the distance of each printed paper result from the
	// paper, identical in every correct run.
	Fidelity map[string]float64 `json:"fidelity,omitempty"`
	tally
}

// tally counts the operations a measurement attempted and the ones that
// failed, keeping the first few reasons.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
}

const maxProblems = 8

func (t *tally) fail(err error) {
	t.Failed++
	if len(t.Problems) < maxProblems {
		t.Problems = append(t.Problems, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, p := range o.Problems {
		if len(t.Problems) < maxProblems {
			t.Problems = append(t.Problems, p)
		}
	}
}

// metrics are the end-to-end metrics: medians over the run's samples.
func (r *e2eResult) metrics() map[string]float64 {
	return map[string]float64{
		"wall_s":      median(r.Wall),
		"cpu_s":       median(r.CPU),
		"peak_rss_mb": median(r.RSS),
		"setup_s":     median(r.Setup),
	}
}

// measureE2E times a workload's set-up in fresh children, then the
// workload as a closed loop of CLI runs, one child at a time, as p says.
// Every run's output is checked; the first correct run's digest is the
// reference the others must match.
func measureE2E(ctx context.Context, e env, w *workload, seed int64, p plan) *e2eResult {
	r := &e2eResult{}
	start := time.Now()
	for i := 0; i < p.setups || time.Since(start).Seconds() < p.setupSeconds; i++ {
		r.Attempted++
		s, err := e.runChild(ctx, e.bench, "-child", "setup", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		if err != nil {
			r.fail(fmt.Errorf("setup: %w", err))
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(s.out), 64)
		if err != nil {
			r.fail(fmt.Errorf("setup: %w", err))
			continue
		}
		r.Setup = append(r.Setup, v)
	}
	var durs []float64 // every CLI run's wall clock, failed ones too
	for i := 0; ; i++ {
		if p.seconds > 0 {
			if i > 0 && time.Since(start).Seconds()+median(durs) > p.seconds {
				break
			}
		} else if i >= p.reps {
			break
		}
		r.Attempted++
		s, err := e.runChild(ctx, e.cli, w.args(seed, e.procs)...)
		durs = append(durs, s.wall)
		if err != nil {
			r.fail(fmt.Errorf("run %d: %w", i, err))
			continue
		}
		if msg := checkOutput(w, s.out); msg != "" {
			r.fail(fmt.Errorf("run %d: %s", i, msg))
			continue
		}
		d := digest(s.out)
		if r.Digest == "" {
			r.Digest = d
			r.Fidelity, _ = fidelity(s.out) // checkOutput has read it
		} else if d != r.Digest {
			r.fail(fmt.Errorf("run %d: output digest %s differs from %s", i, d, r.Digest))
			continue
		}
		r.Wall = append(r.Wall, s.wall)
		r.CPU = append(r.CPU, s.cpu)
		r.RSS = append(r.RSS, s.rssMB)
	}
	return r
}

// checkOutput reports why a run's standard output is wrong, or "".
func checkOutput(w *workload, out string) string {
	if hasNaN(out) {
		return "output holds NaN"
	}
	for _, p := range w.pass {
		if !strings.Contains(out, p) {
			return fmt.Sprintf("output lacks %q", p)
		}
	}
	if _, err := fidelity(out); err != nil {
		return err.Error()
	}
	return ""
}

// setUp builds the workload's programs with the public generators, then
// predecodes them, and times each step: the work the set-up child times.
func setUp(w *workload, seed int64) (ws []core.Workload, build, predecode time.Duration, err error) {
	start := time.Now()
	if ws, err = w.programs(seed); err != nil {
		return nil, 0, 0, err
	}
	build = time.Since(start)
	for _, x := range ws {
		x.Prog.Decoded()
		x.Prog.Blocks()
	}
	return ws, build, time.Since(start) - build, nil
}

// decodeLast decodes the last line of a child's output as JSON.
func decodeLast(out string, v any) error {
	return json.Unmarshal([]byte(lastLine(out)), v)
}
