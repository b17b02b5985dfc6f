package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestNormaliseStripsOnlyCompletedLines(t *testing.T) {
	a := "table\n[fig6 completed in 7.417s]\n\nnote: x\n"
	b := "table\n[fig6 completed in 6.1s]\n\nnote: x\n"
	if got := normalise(a); got != "table\n\nnote: x\n" {
		t.Errorf("normalise = %q", got)
	}
	if digest(a) != digest(b) {
		t.Error("outputs differing only in wall clock have different digests")
	}
	if digest(a) == digest(strings.Replace(a, "note: x", "note: y", 1)) {
		t.Error("different tables share a digest")
	}
	// A completed-in phrase inside other text is output, not timing.
	if got := normalise("x [fig6 completed in 1s]\n"); got != "x [fig6 completed in 1s]\n" {
		t.Errorf("normalise dropped a table line: %q", got)
	}
}

func TestHasNaN(t *testing.T) {
	for s, want := range map[string]bool{
		"GEOMEAN    NaN     0.12": true,
		"NaN\n":                   true,
		"GEOMEAN    1.76":         false,
		"Nano banana":             false,
		"nan":                     false,
	} {
		if got := hasNaN(s); got != want {
			t.Errorf("hasNaN(%q) = %v, want %v", s, got, want)
		}
	}
}

func readFixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func checkFidelity(t *testing.T, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("fidelity metrics %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestFidelityFullFig6(t *testing.T) {
	fid, err := fidelity(readFixture(t, "fig6_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// GEOMEAN 1.76, 0.04 and 0.07 against the paper's 1.6, 3.4 and 4.3.
	checkFidelity(t, fid, map[string]float64{
		"fid.fig6_1xX2_err_pp":   0.16,
		"fid.fig6_4xA510_err_pp": 3.36,
		"fid.fig6_ed2p_err_pp":   4.23,
	})
}

func TestFidelityQuickAllExcerpt(t *testing.T) {
	fid, err := fidelity(readFixture(t, "quick_all_excerpt.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 7's GEOMEAN 0.07 against 1.4 (not the companion coverage
	// table's 99.42), and fig. 8's 67% against 76%.
	checkFidelity(t, fid, map[string]float64{
		"fid.fig7_1xX2_err_pp":     1.33,
		"fid.fig8_detected_err_pp": 9,
	})
}

func TestFidelityRejectsBrokenTables(t *testing.T) {
	full := readFixture(t, "fig6_full.txt")
	for name, out := range map[string]string{
		"no GEOMEAN row":  strings.Replace(full, "GEOMEAN", "MEAN", 1),
		"missing column":  strings.Replace(full, "4xA510-ED2P", "4xA510-XXX", 1),
		"unparsable cell": strings.Replace(full, "GEOMEAN    1.76", "GEOMEAN    x.76", 1),
		"short row":       strings.Replace(full, "0.21        0.07", "0.21", 1),
	} {
		if _, err := fidelity(out); err == nil {
			t.Errorf("%s: fidelity accepted a broken fig. 6 table", name)
		}
	}
	if fid, err := fidelity("differential fuzz: all seeds agree\n"); err != nil || len(fid) != 0 {
		t.Errorf("output without paper tables: %v, %v; want no metrics", fid, err)
	}
}

func TestCheckOutput(t *testing.T) {
	w, err := workloadByName("full-fig6")
	if err != nil {
		t.Fatal(err)
	}
	full := readFixture(t, "fig6_full.txt")
	if msg := checkOutput(w, full); msg != "" {
		t.Errorf("the fixture fails the check: %s", msg)
	}
	for name, out := range map[string]string{
		"NaN":                strings.Replace(full, "GEOMEAN    1.76", "GEOMEAN    NaN", 1),
		"no completed line":  strings.Replace(full, "[fig6 completed in", "[fig6 finished in", 1),
		"unreadable GEOMEAN": strings.Replace(full, "GEOMEAN    1.76", "GEOMEAN    -", 1),
	} {
		if checkOutput(w, out) == "" {
			t.Errorf("%s: output passed the check", name)
		}
	}
}
