package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// completedLine matches the CLI's "[fig6 completed in 7.417s]" trailer,
// the only wall-clock-dependent text on its standard output.
var completedLine = regexp.MustCompile(`^\[\S+ completed in [^\]]*\]$`)

var nanWord = regexp.MustCompile(`\bNaN\b`)

// normalise drops the completed-in lines, so equal inputs give equal
// text.
func normalise(out string) string {
	lines := strings.SplitAfter(out, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !completedLine.MatchString(strings.TrimRight(l, "\n")) {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
}

// digest identifies a run's normalised output.
func digest(out string) string {
	sum := sha256.Sum256([]byte(normalise(out)))
	return hex.EncodeToString(sum[:8])
}

func hasNaN(out string) bool { return nanWord.MatchString(out) }

// fidelityRef pins one paper value a printed result is compared with.
// The values are the paper's, as EXPERIMENTS.md quotes them; they are not
// parsed from the notes the CLI prints, so editing a note cannot move a
// metric.
type fidelityRef struct {
	name   string
	table  string // prefix of the table's title line
	column string // column of the GEOMEAN row
	paper  float64
}

var fidelityRefs = []fidelityRef{
	{"fid.fig6_1xX2_err_pp", "Fig. 6:", "1xX2@3.0", 1.6},
	{"fid.fig6_4xA510_err_pp", "Fig. 6:", "4xA510@2.0", 3.4},
	{"fid.fig6_ed2p_err_pp", "Fig. 6:", "4xA510-ED2P", 4.3},
	{"fid.fig7_1xX2_err_pp", "Fig. 7: opportunistic", "1xX2@3.0", 1.4},
}

var fig8Detected = regexp.MustCompile(`full-coverage detected ([0-9.]+)% of injections`)

const fig8Paper = 76.0

// fidelity returns, for each paper result the output prints, its
// distance from the paper's value in percentage points. A table that is
// printed but cannot be read is an error.
func fidelity(out string) (map[string]float64, error) {
	fid := make(map[string]float64)
	for _, ref := range fidelityRefs {
		row, found, err := geomeanRow(out, ref.table)
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		v, ok := row[ref.column]
		if !ok {
			return nil, fmt.Errorf("%q: no %s column", ref.table, ref.column)
		}
		fid[ref.name] = math.Abs(v - ref.paper)
	}
	if m := fig8Detected.FindStringSubmatch(out); m != nil {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, fmt.Errorf("fig8 detected share: %w", err)
		}
		fid["fid.fig8_detected_err_pp"] = math.Abs(v - fig8Paper)
	}
	return fid, nil
}

// geomeanRow reads the GEOMEAN row of the first table whose title line
// starts with title, keyed by column header.
func geomeanRow(out, title string) (map[string]float64, bool, error) {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, title) {
			continue
		}
		if i+1 >= len(lines) {
			return nil, true, fmt.Errorf("%q: no header", title)
		}
		header := strings.Fields(lines[i+1])
		for _, r := range lines[i+2:] {
			f := strings.Fields(r)
			if len(f) == 0 {
				break
			}
			if f[0] != "GEOMEAN" {
				continue
			}
			if len(f) != len(header) {
				return nil, true, fmt.Errorf("%q: GEOMEAN row has %d fields, header %d", title, len(f), len(header))
			}
			row := make(map[string]float64, len(f)-1)
			for j := 1; j < len(f); j++ {
				v, err := strconv.ParseFloat(f[j], 64)
				if err != nil {
					return nil, true, fmt.Errorf("%q: %s: %w", title, header[j], err)
				}
				row[header[j]] = v
			}
			return row, true, nil
		}
		return nil, true, fmt.Errorf("%q: no GEOMEAN row", title)
	}
	return nil, false, nil
}
