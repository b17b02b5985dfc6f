package main

import (
	"os"
	"path/filepath"
	"testing"

	"paraverser/internal/experiments"
)

func TestRunArgHandling(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus-flag"}); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"no-such-experiment"}); code != 1 {
		t.Errorf("unknown experiment: exit %d, want 1", code)
	}
	// -h is a request, not an error: flag.ErrHelp exits 0.
	if code := run([]string{"-h"}); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if code := run([]string{"metrics", "-h"}); code != 0 {
		t.Errorf("metrics -h: exit %d, want 0", code)
	}
}

// TestFlagValidation pins the usage-error contract across every numeric
// and enumerated knob: an out-of-range or unparsable value must exit 2
// with a one-line diagnostic before any simulation starts, and the
// valid edge values must not trip the validators.
func TestFlagValidation(t *testing.T) {
	defer experiments.SetStrategy(0)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"negative -j", []string{"-j", "-1", "table1"}, 2},
		{"negative -fault-trials", []string{"-fault-trials", "-1", "table1"}, 2},
		{"negative -campaign-trials", []string{"-campaign-trials", "-4", "table1"}, 2},
		{"negative -insts", []string{"-insts", "-100", "table1"}, 2},
		{"negative -warmup", []string{"-warmup", "-100", "table1"}, 2},
		{"zero -trace-cap", []string{"-trace-cap", "0", "table1"}, 2},
		{"negative -trace-cap", []string{"-trace-cap", "-8", "table1"}, 2},
		{"zero -fuzz-seeds", []string{"-fuzz-seeds", "0", "table1"}, 2},
		{"negative -fuzz-seeds", []string{"-fuzz-seeds", "-16", "table1"}, 2},
		{"zero -fuzz-insts", []string{"-fuzz-insts", "0", "table1"}, 2},
		{"negative -fuzz-insts", []string{"-fuzz-insts", "-200", "table1"}, 2},
		{"unknown -strategy", []string{"-strategy", "bogus", "table1"}, 2},
		{"divergent -strategy", []string{"-strategy", "divergent", "table1"}, 2},
		// Valid edges: zero means "default" for the counts, and every
		// named strategy the flag accepts must reach the experiment.
		{"zero -j", []string{"-j", "0", "table1"}, 0},
		{"auto -strategy", []string{"-strategy", "auto", "table1"}, 0},
		{"lockstep -strategy", []string{"-strategy", "lockstep", "table1"}, 0},
		{"chunk-replay -strategy", []string{"-strategy", "chunk-replay", "table1"}, 0},
		{"relaxed -strategy", []string{"-strategy", "relaxed", "table1"}, 0},
	}
	for _, tc := range cases {
		if code := run(tc.args); code != tc.want {
			t.Errorf("%s (%v): exit %d, want %d", tc.name, tc.args, code, tc.want)
		}
	}
}

func TestMetricsCmdArgHandling(t *testing.T) {
	if code := run([]string{"metrics"}); code != 2 {
		t.Errorf("metrics with no file: exit %d, want 2", code)
	}
	if code := run([]string{"metrics", "-bogus"}); code != 2 {
		t.Errorf("metrics with bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"metrics", filepath.Join(t.TempDir(), "absent.json")}); code != 1 {
		t.Errorf("metrics with missing file: exit %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"metrics", bad}); code != 1 {
		t.Errorf("metrics with corrupt file: exit %d, want 1", code)
	}
}

// TestMetricsCmdRejectsMalformedInput pins the strict-reader contract:
// a snapshot or trace that parses as JSON but is not a well-formed
// export must exit non-zero instead of rendering a vacuous report.
func TestMetricsCmdRejectsMalformedInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	goodSnap := `{"metrics":[{"name":"paraverser_segments_total","kind":"counter","value":0}]}`

	if code := run([]string{"metrics", write("empty.json", `{}`)}); code != 1 {
		t.Errorf("empty snapshot object: exit %d, want 1", code)
	}
	if code := run([]string{"metrics", write("nometrics.json", `{"metrics":[]}`)}); code != 1 {
		t.Errorf("zero-metric snapshot: exit %d, want 1", code)
	}
	if code := run([]string{"metrics", write("trailing.json", goodSnap+"{}")}); code != 1 {
		t.Errorf("snapshot with trailing data: exit %d, want 1", code)
	}

	snap := write("good.json", goodSnap)
	if code := run([]string{"metrics", snap}); code != 0 {
		t.Fatalf("minimal valid snapshot: exit %d, want 0", code)
	}
	goodTrace := `{"traceEvents":[]}`
	if code := run([]string{"metrics", "-trace", write("t1.json", goodTrace+"[]"), snap}); code != 1 {
		t.Errorf("trace with trailing data: exit %d, want 1", code)
	}
	badDrop := `{"traceEvents":[],"otherData":{"dropped_segment":"12abc"}}`
	if code := run([]string{"metrics", "-trace", write("t2.json", badDrop), snap}); code != 1 {
		t.Errorf("trace with malformed dropped count: exit %d, want 1", code)
	}
	if code := run([]string{"metrics", "-trace", write("t3.json", goodTrace), snap}); code != 0 {
		t.Errorf("valid trace cross-check: exit %d, want 0", code)
	}
}

func TestRunStaticExperiments(t *testing.T) {
	if code := run([]string{"table1", "area"}); code != 0 {
		t.Errorf("static experiments: exit %d", code)
	}
}

func TestRunTinySimulation(t *testing.T) {
	code := run([]string{
		"-quick", "-insts", "20000", "-warmup", "20000",
		"-benchmarks", "exchange2", "fig6",
	})
	if code != 0 {
		t.Errorf("tiny fig6: exit %d", code)
	}
}

func TestExperimentDispatchCoversAll(t *testing.T) {
	// Every name the "all" alias expands to must dispatch (checked
	// against the cheap ones; simulation-heavy ones covered above and in
	// the experiments package).
	sc := experiments.Quick()
	camp := campaignOpts{seed: 1}
	for _, name := range []string{"table1", "area"} {
		text, err := runExperiment(name, sc, camp)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if text == "" {
			t.Errorf("%s: empty report", name)
		}
	}
	if _, err := runExperiment("nope", sc, camp); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestObservabilityRoundTrip drives the full export pipeline: a tiny
// fig6 with tracing, metrics and progress on, then the metrics
// subcommand cross-checking the trace against the snapshot.
func TestObservabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	prom := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.json")
	code := run([]string{
		"-quick", "-insts", "20000", "-warmup", "20000",
		"-benchmarks", "exchange2", "-j", "2", "-progress",
		"-metrics-out", metrics, "-metrics-prom", prom, "-trace", trace,
		"fig6",
	})
	if code != 0 {
		t.Fatalf("traced fig6: exit %d", code)
	}
	for _, p := range []string{metrics, prom, trace} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("export %s missing or empty (err=%v)", p, err)
		}
	}
	if code := run([]string{"metrics", "-trace", trace, metrics}); code != 0 {
		t.Errorf("metrics cross-check: exit %d, want 0", code)
	}
}

// TestExportFailureExitsNonzero asserts a failed export turns an
// otherwise clean run into exit 1, so CI can trust the artifacts.
func TestExportFailureExitsNonzero(t *testing.T) {
	code := run([]string{
		"-quick", "-insts", "20000", "-warmup", "20000",
		"-benchmarks", "exchange2",
		"-metrics-out", t.TempDir(), // a directory: os.Create fails
		"fig6",
	})
	if code != 1 {
		t.Errorf("unwritable -metrics-out: exit %d, want 1", code)
	}
}

// TestRunTinyFuzz drives the fuzz experiment end to end through the
// CLI, at two -j settings whose reports must agree (the experiment's
// own table is printed to stdout; here exit status is the contract —
// a mismatch or screening failure exits 1).
func TestRunTinyFuzz(t *testing.T) {
	for _, j := range []string{"1", "4"} {
		if code := run([]string{"-j", j, "-fuzz-seeds", "6", "-fuzz-insts", "120", "fuzz"}); code != 0 {
			t.Errorf("-j %s fuzz: exit %d, want 0", j, code)
		}
	}
}

func TestRunTinyCampaign(t *testing.T) {
	code := run([]string{
		"-quick", "-seed", "7", "-campaign-trials", "4", "campaign",
	})
	if code != 0 {
		t.Errorf("tiny campaign: exit %d", code)
	}
}
