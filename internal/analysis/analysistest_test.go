package analysis

import (
	"regexp"
	"testing"
)

// The fixture harness mirrors golang.org/x/tools' analysistest: each
// package under testdata/src/<name> is loaded and run through one
// analyzer, and every diagnostic must be matched by a `// want "regexp"`
// comment on the same line (a line may carry several). Unmatched
// diagnostics and unmatched expectations both fail the test.

var wantRE = regexp.MustCompile(`// want (.*)$`)
var wantArgRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkgs, err := Load("", "./testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", fixture, len(pkgs))
	}
	pkg := pkgs[0]
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, fixture, err)
	}

	wants := map[fileLine][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fileLine{pos.Filename, pos.Line}
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					pat := arg[1]
					if pat == "" {
						pat = arg[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}

	for _, d := range diags {
		key := fileLine{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, w.re)
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, Determinism, "determinism") }
func TestHotPathFixture(t *testing.T)     { runFixture(t, HotPathAlloc, "hotpath") }
func TestShardSafetyFixture(t *testing.T) { runFixture(t, ShardSafety, "shardsafety") }

// TestAllowSuppression proves the //paralint:allow escape hatch works for
// every analyzer: the allow fixture repeats violations from the other
// fixtures with allow comments attached and must produce zero
// diagnostics.
func TestAllowSuppression(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/allowed")
	if err != nil {
		t.Fatalf("loading allowed fixture: %v", err)
	}
	diags, err := Run(pkgs[0], All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("allow comment did not suppress: %s", d)
	}
}

// TestDiagnosticOrdering checks Run's output is position-sorted.
func TestDiagnosticOrdering(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/determinism")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(pkgs[0], All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
	if len(diags) == 0 {
		t.Fatal("determinism fixture produced no diagnostics at all")
	}
	for _, d := range diags {
		if d.String() == "" || d.Analyzer == "" {
			t.Errorf("malformed diagnostic: %+v", d)
		}
	}
}

// TestLoadErrors exercises loader failure modes.
func TestLoadErrors(t *testing.T) {
	if _, err := Load("", "./testdata/src/does-not-exist"); err == nil {
		t.Error("loading a missing package succeeded")
	}
}

// TestAnalyzerMetadata keeps names unique and documented — cmd/paralint
// -only and the CI output rely on them.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing metadata", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 3 {
		t.Errorf("expected 3 analyzers, got %d", len(seen))
	}
}
