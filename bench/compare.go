package main

import (
	"archive/tar"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// resolveRev returns the full commit id a revision names.
func resolveRev(root, rev string) (string, error) {
	return gitOut(root, "rev-parse", "--verify", "--quiet", rev+"^{commit}")
}

// compareBaseline measures the parent revision rev against the working
// tree in alternating pairs, switching which side runs first, with this
// benchmark code driving both. Each pair runs each side's set-up child
// and CLI once. It reports, per workload and end-to-end metric, each
// side's median and quartiles and how often the change won, ties
// excluded, and whether the two sides printed identical output.
func compareBaseline(ctx context.Context, root, out string, cur env, rev string, pairs int, ws []*workload, seed int64) error {
	tree := filepath.Join(root, ".bench_build", "baseline-"+rev[:12])
	if err := extractRev(root, rev, tree); err != nil {
		return err
	}
	parent, err := buildTree(ctx, root, tree)
	if err != nil {
		return err
	}
	parent.procs = cur.procs
	sides := [2]env{parent, cur}

	type sideRuns struct {
		Values  map[string][]float64 `json:"values"`
		Digests []string             `json:"digests"`
		Failed  int                  `json:"failed"`
	}
	report := make(map[string]map[string]*sideRuns)
	fmt.Printf("baseline %s vs working tree, %d pairs, seed %d, %d CPUs\n", rev[:12], pairs, seed, cur.procs)
	for _, w := range ws {
		runs := [2]*sideRuns{{Values: map[string][]float64{}}, {Values: map[string][]float64{}}}
		for i := 0; i < pairs; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				r := measureE2E(ctx, sides[side], w, seed, plan{setups: 1, reps: 1})
				runs[side].Failed += r.Failed
				if r.Failed > 0 {
					fmt.Fprintf(os.Stderr, "%s: %s side: %s\n", w.name, [2]string{"parent", "change"}[side], strings.Join(r.Problems, "; "))
					continue
				}
				for k, v := range r.metrics() {
					runs[side].Values[k] = append(runs[side].Values[k], v)
				}
				runs[side].Digests = append(runs[side].Digests, r.Digest)
			}
		}
		report[w.name] = map[string]*sideRuns{"parent": runs[0], "change": runs[1]}
		identical := len(runs[0].Digests) > 0
		for _, d := range append(runs[0].Digests, runs[1].Digests...) {
			identical = identical && d == runs[0].Digests[0]
		}
		fmt.Printf("\n%s (failed runs: parent %d, change %d; outputs identical: %v)\n", w.name, runs[0].Failed, runs[1].Failed, identical)
		fmt.Printf("  %-12s %28s %28s %10s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change wins")
		for _, s := range e2eSpecs {
			p, c := runs[0].Values[s.name], runs[1].Values[s.name]
			pq, cq := quartiles(p), quartiles(c)
			fmt.Printf("  %-12s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %10s\n",
				s.name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], winFraction(p, c))
		}
	}
	return writeJSON(filepath.Join(out, "compare.json"), map[string]any{"baseline": rev, "pairs": pairs, "seed": seed, "workloads": report})
}

// winFraction is how many pairs the change won, lower being better, out
// of the pairs that were not ties.
func winFraction(parent, change []float64) string {
	wins, decided := 0, 0
	for i := 0; i < len(parent) && i < len(change); i++ {
		if change[i] != parent[i] {
			decided++
			if change[i] < parent[i] {
				wins++
			}
		}
	}
	return fmt.Sprintf("%d/%d", wins, decided)
}

// extractRev writes the files of commit rev into dir, replacing it.
func extractRev(root, rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Dir = root
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	err = untar(pipe, dir)
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return nil
}

func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, dir+string(filepath.Separator)) {
			return fmt.Errorf("archive entry %q leaves the directory", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(h.Mode)&0o777)
		}
		if err != nil {
			return err
		}
	}
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildTree puts this benchmark's code into an extracted tree in place
// of whatever bench directory it has, then builds the tree's CLI and
// the benchmark against the tree's packages.
func buildTree(ctx context.Context, root, tree string) (env, error) {
	src, dst := filepath.Join(root, "bench"), filepath.Join(tree, "bench")
	if err := os.RemoveAll(dst); err != nil {
		return env{}, err
	}
	files, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil {
		return env{}, err
	}
	for _, name := range append(files, filepath.Join(src, "go.mod")) {
		f, err := os.Open(name)
		if err != nil {
			return env{}, err
		}
		err = writeFile(filepath.Join(dst, filepath.Base(name)), f, 0o644)
		f.Close()
		if err != nil {
			return env{}, err
		}
	}
	cli, err := buildCLI(ctx, tree)
	if err != nil {
		return env{}, err
	}
	pgo := "off"
	if p := filepath.Join(tree, "cmd", "paraverser", "default.pgo"); fileExists(p) {
		pgo = p
	}
	bench := filepath.Join(tree, ".bench_build", "bench")
	if err := goBuild(ctx, dst, "-pgo="+pgo, "-o", bench, "."); err != nil {
		return env{}, err
	}
	return env{cli: cli, bench: bench}, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// diffResults compares the end-to-end medians of two results files from
// the same host, against the benchmark's bounds.
func diffResults(w io.Writer, oldPath, newPath string) error {
	var old, cur results
	for _, f := range []struct {
		path string
		r    *results
	}{{oldPath, &old}, {newPath, &cur}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, f.r); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	if a, b := old.Host, cur.Host; a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS || a.Go != b.Go {
		return usageError{fmt.Sprintf("host blocks differ (%d CPUs, GOMAXPROCS %d, %s vs %d, %d, %s): results are not comparable",
			a.NProc, a.GOMAXPROCS, a.Go, b.NProc, b.GOMAXPROCS, b.Go)}
	}
	fmt.Fprintf(w, "%s (%s) -> %s (%s)\n", oldPath, old.Host.Commit, newPath, cur.Host.Commit)
	for _, name := range sortedKeys(cur.Workloads) {
		o, ok := old.Workloads[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\n", name)
		for _, s := range e2eSpecs {
			a, aok := o.Metrics[s.name]
			b, bok := cur.Workloads[name].Metrics[s.name]
			if !aok || !bok {
				continue
			}
			change := b.Value/a.Value - 1
			verdict := "within bound"
			if change > s.bound {
				verdict = "REGRESSION"
			}
			fmt.Fprintf(w, "  %-12s %10.4g -> %10.4g %s  %+6.1f%% (bound %.0f%%) %s\n",
				s.name, a.Value, b.Value, s.unit, 100*change, 100*s.bound, verdict)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
