// Command paralint runs the repository's invariant analyzer suite
// (determinism, hotpathalloc, shardsafety) over the
// packages matching the given go list patterns and exits non-zero when
// any finding survives its //paralint:allow review.
//
// Usage:
//
//	go run ./cmd/paralint ./...
//	go run ./cmd/paralint -list
//	go run ./cmd/paralint -only determinism,shardsafety ./internal/core
//	go run ./cmd/paralint -json ./... | jq '.[].file'
//
// -json replaces the line-oriented findings on stdout with a single
// JSON array (one object per finding: file, line, col, analyzer,
// severity, message), always emitted — empty when the tree is clean —
// so CI annotators can consume the output without scraping. Exit
// status is unchanged: 1 when any finding survives, 2 on usage or
// load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"paraverser/internal/analysis"
)

// jsonDiag is the machine-readable rendering of one finding. Severity
// is always "error" today — every surviving paralint finding gates the
// build — but the field keeps the schema stable if advisory analyzers
// arrive.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("paralint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", "", "resolve patterns relative to this directory")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := all
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "paralint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "paralint: %v\n", err)
		return 2
	}

	// The JSON array is emitted even when empty so consumers can always
	// parse stdout; the human summary stays on stderr in both modes.
	jdiags := []jsonDiag{}
	findings := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, selected)
		if err != nil {
			fmt.Fprintf(stderr, "paralint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			if *jsonOut {
				jdiags = append(jdiags, jsonDiag{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Analyzer: d.Analyzer,
					Severity: "error",
					Message:  d.Message,
				})
			} else {
				fmt.Fprintln(stdout, d.String())
			}
			findings++
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jdiags); err != nil {
			fmt.Fprintf(stderr, "paralint: %v\n", err)
			return 2
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "paralint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
