package noc

import "fmt"

// Layout places main cores, checker cores and LLC slices on the mesh,
// reproducing fig. 5: the four crosspoints in the middle each carry an
// LLC slice and one core (checker i, which therefore contends with
// demand traffic); main cores sit on edge crosspoints without LLC
// slices; every non-corner crosspoint carries two cores.
type Layout struct {
	// MainPos[m] is the crosspoint of main core m (0-3).
	MainPos []Coord
	// CheckerPos[m][k] is the crosspoint of checker core k (0-3, the
	// paper's i-iv) serving main core m.
	CheckerPos [][]Coord
	// LLCPos are the LLC slice crosspoints; each slice serves 1/4 of
	// each main core's demand misses.
	LLCPos []Coord
}

// DefaultLayout returns the fig. 5 tile placement on a 4x4 mesh.
func DefaultLayout() *Layout {
	return &Layout{
		MainPos: []Coord{{1, 0}, {1, 3}, {2, 0}, {2, 3}},
		CheckerPos: [][]Coord{
			{{1, 1}, {1, 0}, {0, 0}, {0, 1}}, // main 0: i on the LLC crosspoint
			{{1, 2}, {1, 3}, {0, 3}, {0, 2}}, // main 1
			{{2, 1}, {2, 0}, {3, 0}, {3, 1}}, // main 2
			{{2, 2}, {2, 3}, {3, 3}, {3, 2}}, // main 3
		},
		LLCPos: []Coord{{1, 1}, {1, 2}, {2, 1}, {2, 2}},
	}
}

// Validate checks the layout fits a mesh configuration.
func (l *Layout) Validate(cfg Config) error {
	// Labels are formatted only on failure: Validate runs once per
	// system built.
	inside := func(c Coord) bool {
		return c.Row >= 0 && c.Row < cfg.Rows && c.Col >= 0 && c.Col < cfg.Cols
	}
	outside := func(c Coord, what string) error {
		return fmt.Errorf("noc: %s at %v outside %dx%d mesh", what, c, cfg.Rows, cfg.Cols)
	}
	if len(l.CheckerPos) != len(l.MainPos) {
		return fmt.Errorf("noc: %d checker rows for %d main cores", len(l.CheckerPos), len(l.MainPos))
	}
	for i, c := range l.MainPos {
		if !inside(c) {
			return outside(c, fmt.Sprintf("main %d", i))
		}
	}
	for m, row := range l.CheckerPos {
		for k, c := range row {
			if !inside(c) {
				return outside(c, fmt.Sprintf("checker %d.%d", m, k))
			}
		}
	}
	for i, c := range l.LLCPos {
		if !inside(c) {
			return outside(c, fmt.Sprintf("llc %d", i))
		}
	}
	return nil
}

// Main returns the crosspoint of main core m.
func (l *Layout) Main(m int) Coord { return l.MainPos[m] }

// Checker returns the crosspoint of checker k of main core m. Checker
// indices beyond the layout wrap, supporting configurations that gang
// more checkers onto the same tiles.
func (l *Layout) Checker(m, k int) Coord {
	row := l.CheckerPos[m%len(l.CheckerPos)]
	return row[k%len(row)]
}
