package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// capture runs paralint with a piped stdout and returns the exit code
// and everything written to it (stderr goes to the test's stderr).
func capture(t *testing.T, args []string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		out []byte
		err error
	}
	ch := make(chan res, 1)
	go func() {
		b, err := io.ReadAll(r)
		ch <- res{b, err}
	}()
	code := run(args, w, os.Stderr)
	w.Close()
	got := <-ch
	r.Close()
	if got.err != nil {
		t.Fatal(got.err)
	}
	return code, string(got.out)
}

// TestJSONOutput drives -json over the seeded-broken analyzer fixtures:
// each case pins the exit status, the finding count, and the shape of
// every emitted object (non-empty file ending in .go, positive line,
// the requested analyzer, "error" severity, non-empty message).
func TestJSONOutput(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		fixture  string
		minFinds int
	}{
		{"determinism fixture", "determinism", "./internal/analysis/testdata/src/determinism", 5},
		{"hotpath fixture", "hotpathalloc", "./internal/analysis/testdata/src/hotpath", 3},
		{"shardsafety fixture", "shardsafety", "./internal/analysis/testdata/src/shardsafety", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := capture(t, []string{"-json", "-C", "../..", "-only", tc.analyzer, tc.fixture})
			if code != 1 {
				t.Fatalf("exit %d, want 1 (findings present)", code)
			}
			var diags []jsonDiag
			if err := json.Unmarshal([]byte(out), &diags); err != nil {
				t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, out)
			}
			if len(diags) < tc.minFinds {
				t.Fatalf("got %d findings, want >= %d", len(diags), tc.minFinds)
			}
			for i, d := range diags {
				if d.File == "" || !strings.HasSuffix(d.File, ".go") {
					t.Errorf("finding %d: bad file %q", i, d.File)
				}
				if d.Line <= 0 || d.Col <= 0 {
					t.Errorf("finding %d: bad position %d:%d", i, d.Line, d.Col)
				}
				if d.Analyzer != tc.analyzer {
					t.Errorf("finding %d: analyzer %q, want %q", i, d.Analyzer, tc.analyzer)
				}
				if d.Severity != "error" {
					t.Errorf("finding %d: severity %q, want \"error\"", i, d.Severity)
				}
				if d.Message == "" {
					t.Errorf("finding %d: empty message", i)
				}
			}
		})
	}
}

// TestJSONOutputCleanTree pins the clean-tree contract: -json on a
// finding-free package emits an empty JSON array (not nothing) and
// exits 0.
func TestJSONOutputCleanTree(t *testing.T) {
	code, out := capture(t, []string{"-json", "-C", "../..", "-only", "determinism",
		"./internal/analysis/testdata/src/allowed"})
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out)
	}
	if len(diags) != 0 {
		t.Fatalf("clean fixture produced %d findings: %s", len(diags), out)
	}
}

// TestTextOutputUnchanged guards the default mode: findings stay
// line-oriented file:line:col: analyzer: message.
func TestTextOutputUnchanged(t *testing.T) {
	code, out := capture(t, []string{"-C", "../..", "-only", "determinism",
		"./internal/analysis/testdata/src/determinism"})
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("got %d finding lines, want >= 5:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, ".go:") || !strings.Contains(l, "determinism:") {
			t.Errorf("malformed finding line: %q", l)
		}
	}
}

// TestUsageErrors pins the exit-2 paths.
func TestUsageErrors(t *testing.T) {
	if code, _ := capture(t, []string{"-bogus"}); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code, _ := capture(t, []string{"-only", "nosuch", "./..."}); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2", code)
	}
}
