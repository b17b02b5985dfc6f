// Package analysis is a self-contained static-analysis framework plus the
// paralint analyzer suite that enforces this repository's load-bearing
// invariants at lint time:
//
//   - determinism: deterministic packages (marked //paralint:deterministic)
//     must not read wall clocks, use the global math/rand stream, or leak
//     map iteration order into results.
//   - hotpathalloc: functions annotated //paralint:hotpath must avoid
//     allocating constructs (closures, interface conversions, append,
//     string building) on their steady-state path.
//   - shardsafety: obs.RunMetrics shards may only be mutated by their
//     owner; a shard reached through an exported surface is frozen and
//     may only be combined via the commutative Merge/collect path.
//
// The framework mirrors the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library: packages are enumerated with `go list -export -deps -json`
// and type-checked from source against compiler export data, so the
// linter needs no dependencies beyond the Go toolchain itself.
//
// Annotation grammar (all comments, always lowercase):
//
//	//paralint:deterministic          package directive, any file
//	//paralint:hotpath                function doc comment
//	//paralint:allow(reason)          same line or line above a finding
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Analyzer is one named check, mirroring go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed files (comments included).
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Types returns the package's type information.
func (p *Pass) Types() *types.Package { return p.Pkg.Types }

// Info returns the package's use/def/type maps.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full paralint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Determinism, HotPathAlloc, ShardSafety}
}

// Run applies the analyzers to the package and returns surviving
// diagnostics: findings on a line carrying (or directly below) a
// //paralint:allow(reason) comment are suppressed. Diagnostics come back
// sorted by position for stable output.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allowed := allowedLines(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
		for _, d := range pass.diags {
			if allowed[fileLine{d.Pos.Filename, d.Pos.Line}] {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// --- directive handling ---

type fileLine struct {
	file string
	line int
}

var allowRE = regexp.MustCompile(`^//paralint:allow\(([^)]*)\)`)

// allowedLines collects every line suppressed by a //paralint:allow
// comment: the comment's own line plus the line below it (for comments
// placed above the offending statement).
func allowedLines(pkg *Package) map[fileLine]bool {
	m := map[fileLine]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !allowRE.MatchString(c.Text) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m[fileLine{pos.Filename, pos.Line}] = true
				m[fileLine{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return m
}

// packageMarked reports whether any file of the package carries the
// given package-level //paralint:<name> directive anywhere in its
// comments.
func packageMarked(pkg *Package, name string) bool {
	want := "//paralint:" + name
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text == want {
					return true
				}
			}
		}
	}
	return false
}

// funcMarked reports whether the function declaration's doc comment
// carries the exact //paralint:<name> directive.
func funcMarked(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//paralint:"+name {
			return true
		}
	}
	return false
}

// --- shared type helpers ---

// isNamed reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// calleeObj resolves the called function object of a call expression,
// looking through parentheses. Returns nil for builtins, type
// conversions and indirect calls through non-selector expressions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether the call invokes the package-level function
// pkgPath.name (not a method, not a value of function type).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// identUsesObj reports whether expr mentions an identifier resolving to
// any of the given objects.
func identUsesObj(info *types.Info, expr ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
			if obj := info.Defs[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return true
	})
	return found
}
