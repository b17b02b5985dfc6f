package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"time"

	"paraverser/internal/core"
	"paraverser/internal/experiments"
	"paraverser/internal/fault"
)

// traceOutput is what the traced child prints as its last line.
type traceOutput struct {
	Metrics map[string]float64 `json:"metrics"`
	// Entries is each entry point's span, in seconds.
	Entries map[string]float64 `json:"entries"`
	tally
}

// runTrace is the traced child. It times the workload's set-up, then
// calls the CLI's entry points for it under a CPU profile, then runs the
// layer probes. Spans are written as a Chrome trace and the layer
// metrics printed to out as one JSON line.
func runTrace(out io.Writer, w *workload, seed int64, procs int, outDir string) error {
	t := newTracer()
	o := &traceOutput{Metrics: make(map[string]float64), Entries: make(map[string]float64)}
	var ws []core.Workload
	var build, predecode time.Duration
	var err error
	t.do("workload.setup", -1, func() { ws, build, predecode, err = setUp(w, seed) })
	if err != nil {
		return err
	}
	o.Metrics["workload.build_s"] = build.Seconds()
	o.Metrics["isa.predecode_s"] = predecode.Seconds()
	o.Metrics["workload.programs"] = float64(len(ws))
	// Keep only the probe programs: the entry points build their own.
	ws = evenlySpaced(ws, w.probes)

	// The CLI's process-wide settings at -j procs, so the spans time the
	// same work as an untraced run.
	experiments.SetWorkers(procs)
	experiments.SetTimeShards(cliTimeShards(procs))

	prof, err := os.Create(filepath.Join(outDir, w.name+".cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	// The entry points run one after another, as the CLI runs the
	// experiments it is given.
	entries := w.entries(seed, procs)
	results := make([]any, len(entries))
	errs := make([]error, len(entries))
	durs := make([]time.Duration, len(entries))
	root := t.begin("engine.entries", -1)
	for i, en := range entries {
		durs[i] = t.do("engine."+en.name, root, func() { results[i], errs[i] = en.run() })
	}
	entryDur := t.end(root)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return err
	}

	var campaign *fault.CampaignResult
	campaignDur := entryDur
	for i, r := range results {
		o.Entries[entries[i].name] = durs[i].Seconds()
		o.Attempted++
		if errs[i] != nil {
			o.fail(fmt.Errorf("%s: %w", entries[i].name, errs[i]))
			continue
		}
		switch r := r.(type) {
		case *experiments.SeriesResult:
			for _, label := range r.Order {
				if math.IsNaN(r.Geomean(label)) {
					o.fail(fmt.Errorf("%s: %s geomean is NaN", entries[i].name, label))
				}
			}
		case *experiments.FuzzResult:
			if !r.Clean() {
				o.fail(fmt.Errorf("%s: engines disagree:\n%s", entries[i].name, r.Failures()))
			}
		case *fault.CampaignResult:
			campaign, campaignDur = r, durs[i]
		}
	}
	ps := experiments.Progress()
	snap := experiments.MetricsSnapshot()
	hits := float64(ps.Hits + ps.Shares)
	simInsts := float64(snap.CounterValue("paraverser_insts_total") + snap.CounterValue("paraverser_insts_checked_total"))
	o.Metrics["engine.entry_s"] = entryDur.Seconds()
	o.Metrics["engine.jobs"] = float64(ps.JobsTotal)
	o.Metrics["engine.runs"] = float64(ps.Runs)
	o.Metrics["engine.hits"] = hits
	o.Metrics["engine.hit_ratio"] = ratio(hits, float64(ps.JobsTotal))
	o.Metrics["engine.sim_minst_per_s"] = simInsts / 1e6 / entryDur.Seconds()

	o.Attempted++
	probes, err := runProbes(t, ws, seed)
	if err != nil {
		o.fail(err)
	}
	for k, v := range probes {
		o.Metrics[k] = v
	}
	// The fault metrics come from the workload's own campaign when it
	// runs one, and from a small probe campaign otherwise.
	if campaign == nil {
		o.Attempted++
		campaign, campaignDur, err = faultProbe(t, ws, seed)
		if err != nil {
			o.fail(err)
		}
	}
	if campaign != nil {
		n := float64(len(campaign.Trials))
		o.Metrics["fault.ms_per_trial"] = ratio(float64(campaignDur)/1e6, n)
		o.Metrics["fault.detected_ratio"] = ratio(float64(campaign.Outcomes()[fault.Detected]), n)
	}
	if err := t.writeChrome(filepath.Join(outDir, w.name+".trace.json")); err != nil {
		return err
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// cliTimeShards is the CLI's default speculation depth at procs workers.
func cliTimeShards(procs int) int {
	if procs < 2 {
		return 1
	}
	return 4
}

// evenlySpaced picks up to k of ws, spread over the list.
func evenlySpaced(ws []core.Workload, k int) []core.Workload {
	if k >= len(ws) {
		return ws
	}
	out := make([]core.Workload, k)
	for i := range out {
		out[i] = ws[i*len(ws)/k]
	}
	return out
}

// traceResult is the traced measurement of one workload.
type traceResult struct {
	traceOutput
	// UntracedWall is the wall clock of the untraced CLI run the
	// tracing overhead is measured against.
	UntracedWall float64 `json:"untraced_wall_s"`
}

// measureTrace runs the workload once untraced through the CLI and once
// in a traced child, then splits the child's CPU profile by layer.
func measureTrace(ctx context.Context, e env, w *workload, seed int64, outDir string) *traceResult {
	r := &traceResult{}
	r.Metrics = make(map[string]float64)
	r.Attempted++
	s, err := e.runChild(ctx, e.cli, w.args(seed, e.procs)...)
	if err == nil {
		if msg := checkOutput(w, s.out); msg != "" {
			err = fmt.Errorf("untraced run: %s", msg)
		}
	}
	if err != nil {
		r.fail(err)
		return r
	}
	r.UntracedWall = s.wall

	child, err := e.runChild(ctx, e.bench, "-child", "trace", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-out", outDir)
	if err != nil {
		r.fail(err)
		return r
	}
	var o traceOutput
	if err := decodeLast(child.out, &o); err != nil {
		r.fail(fmt.Errorf("traced child output: %w", err))
		return r
	}
	r.add(o.tally)
	r.Entries = o.Entries
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
	r.Metrics["trace.overhead_ratio"] = o.Metrics["engine.entry_s"] / s.wall

	r.Attempted++
	shares, err := profileShares(ctx, filepath.Join(outDir, w.name+".cpu.pprof"))
	if err != nil {
		r.fail(err)
		return r
	}
	for k, v := range shares {
		r.Metrics[k] = v
	}
	if a := shares["prof.attributed_share"]; a < minAttributed {
		r.fail(fmt.Errorf("CPU profile: layers account for %.1f%% of samples, want >= %.0f%%", 100*a, 100*minAttributed))
	}
	return r
}
