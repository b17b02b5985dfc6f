package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"paraverser/internal/core"
	"paraverser/internal/experiments"
)

func TestFlagErrorsExitTwo(t *testing.T) {
	dir := t.TempDir()
	results := func(name string, procs int) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, results{Host: host{NProc: procs, GOMAXPROCS: procs, Go: "go1.x"}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := results("a.json", 2), results("b.json", 4)
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-reps", "0"},
		{"-seconds", "-1"},
		{"-trace", "2"},
		{"-pairs", "0", "-baseline", "HEAD"},
		{"-baseline", "no-such-revision-anywhere"},
		{"-diff", a},
		{"-diff", a, b},
		{"stray"},
		{"-no-such-flag"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
	if code := run([]string{"-diff", a, a}); code != 0 {
		t.Errorf("diffing a results file with itself exited %d", code)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"paraverser/internal/cpu.(*Core).Consume":         "cpu",
		"paraverser/internal/isa.(*Program).Decoded":      "isa",
		"paraverser/internal/isa/verify.Verify":           "verify",
		"paraverser/internal/isa/fuzz.Differential.func1": "fuzz",
		"paraverser/internal/workload/spec.Profile.Build": "workload",
		"paraverser/internal/core.(*System).Run":          "core",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "runtime",
		"runtime/internal/atomic.(*Uint64).Add":           "runtime",
		"sync.(*Mutex).Lock":                              "",
		"main.(*prober).stream.func1":                     "",
		"paraverser/internal/obs.(*RunMetrics).Merge":     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSplitTop(t *testing.T) {
	top := `File: bench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     500ms 50.00% 50.00%      600ms 60.00%  paraverser/internal/cpu.(*Core).Consume
     300ms 30.00% 80.00%      300ms 30.00%  runtime.memmove
     150ms 15.00% 95.00%      150ms 15.00%  paraverser/internal/emu.(*Hart).StepDecoded (inline)
      50ms  5.00%   100%       50ms  5.00%  sync.(*Mutex).Lock
         0     0%   100%      900ms 90.00%  main.main
`
	shares, err := splitTop(top)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"prof.cpu.self_share": 0.5, "prof.runtime.self_share": 0.3, "prof.emu.self_share": 0.15,
		"prof.core.self_share": 0, "prof.attributed_share": 0.95,
	} {
		if shares[k] != want {
			t.Errorf("%s = %v, want %v", k, shares[k], want)
		}
	}
	if len(shares) != len(layers)+1 {
		t.Errorf("got %d shares, want one per layer plus the attributed share", len(shares))
	}
	if _, err := splitTop("flat  flat%\n"); err == nil {
		t.Error("an empty profile was accepted")
	}
}

// smokeWorkloads are small versions of two workloads: quick fig. 6 on
// mcf alone, and an 8-seed fuzz campaign.
var smokeWorkloads = []workload{
	{
		name: "smoke-fig6",
		args: func(s int64, n int) []string {
			return []string{"-quick", "-benchmarks", "mcf", "-j", strconv.Itoa(n), "-seed", strconv.FormatInt(s, 10), "fig6"}
		},
		pass: completedLines("fig6"),
		programs: func(int64) ([]core.Workload, error) {
			sc := experiments.Quick()
			return specPrograms([]string{"mcf"}, sc.Insts, sc.Warmup)
		},
		probes: 1,
		entries: func(int64, int) []entry {
			sc := experiments.Quick()
			sc.Benchmarks = []string{"mcf"}
			return []entry{{"fig6", func() (any, error) { return experiments.Fig6(sc) }}}
		},
	},
	{
		name: "smoke-fuzz",
		args: func(s int64, n int) []string {
			return []string{"-fuzz-seeds", "8", "-j", strconv.Itoa(n), "-seed", strconv.FormatInt(s, 10), "fuzz"}
		},
		pass: append(completedLines("fuzz"), "all seeds agree"),
	},
}

// TestMeasureSmoke runs the untraced loop once per smoke workload through
// a freshly built CLI, then the traced child in process, and checks that
// together they emit exactly the metrics BENCHMARK.json lists.
func TestMeasureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	ctx := context.Background()
	cli := filepath.Join(t.TempDir(), "paraverser")
	if err := goBuild(ctx, "..", "-o", cli, "./cmd/paraverser"); err != nil {
		t.Fatal(err)
	}
	e := env{cli: cli, procs: 2}
	for i := range smokeWorkloads {
		w := &smokeWorkloads[i]
		r := measureE2E(ctx, e, w, 1, plan{reps: 1})
		if r.Failed != 0 || len(r.Wall) != 1 || r.Digest == "" {
			t.Fatalf("%s: %+v", w.name, r)
		}
		m := r.metrics()
		for _, s := range e2eSpecs {
			if _, ok := m[s.name]; !ok {
				t.Errorf("%s: no %s", w.name, s.name)
			}
		}
		if m["wall_s"] <= 0 || m["cpu_s"] <= 0 || m["peak_rss_mb"] <= 0 {
			t.Errorf("%s: metrics %v", w.name, m)
		}
	}
	if ws, build, predecode, err := setUp(&smokeWorkloads[0], 1); err != nil || len(ws) != 1 || build <= 0 || predecode <= 0 {
		t.Errorf("set-up: %d programs, %v + %v, %v", len(ws), build, predecode, err)
	}

	outDir := t.TempDir()
	var out bytes.Buffer
	if err := runTrace(&out, &smokeWorkloads[0], 1, 2, outDir); err != nil {
		t.Fatal(err)
	}
	var o traceOutput
	if err := json.Unmarshal(out.Bytes(), &o); err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 {
		t.Fatalf("traced child: %v", o.Problems)
	}
	shares, err := profileShares(ctx, filepath.Join(outDir, "smoke-fig6.cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{"trace.overhead_ratio": true} // computed by the parent
	for k := range o.Metrics {
		emitted[k] = true
	}
	for k := range shares {
		emitted[k] = true
	}
	for _, s := range layerSpecs {
		if !emitted[s.name] {
			t.Errorf("per-layer metric %s not emitted", s.name)
		}
		delete(emitted, s.name)
	}
	for k := range emitted {
		t.Errorf("emitted metric %s is not a per-layer metric", k)
	}
	if _, err := os.Stat(filepath.Join(outDir, "smoke-fig6.trace.json")); err != nil {
		t.Error(err)
	}
}
