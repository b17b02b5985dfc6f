package core

// LineBytes is the cache-line and NoC message granularity for LSL pushes.
const LineBytes = 64

// LSPU is the Load-Store Push Unit (section IV-C): it buffers one cache
// line's worth of LSL entries at the main core and pushes complete lines
// directly over the NoC to the checker core's LSL$, bypassing the
// coherence directory. Entries that do not fit in the remaining space of
// the current line are placed in the next line (no straddling), unless the
// entry itself is larger than a line.
type LSPU struct {
	lineFill int // bytes used in the current line

	// PushedLines and PushedBytes count completed NoC pushes; Entries
	// counts entries accepted.
	PushedLines int
	PushedBytes int
	Entries     int
}

// NewLSPU returns an empty push unit.
func NewLSPU() *LSPU { return &LSPU{} }

// Append accepts one entry of size bytes (its Entry.SizeBytes),
// returning the number of complete lines pushed to the NoC as a result
// (0, 1, or more for oversized entries).
func (u *LSPU) Append(size int) int {
	if size == 0 {
		return 0 // hash-mode store: nothing crosses the NoC
	}
	u.Entries++
	pushed := 0
	if size > LineBytes {
		// Oversized entry: flush the current line, then send the entry
		// as back-to-back lines.
		if u.lineFill > 0 {
			pushed += u.flushLine()
		}
		lines := (size + LineBytes - 1) / LineBytes
		u.PushedLines += lines
		u.PushedBytes += lines * LineBytes
		return pushed + lines
	}
	if u.lineFill+size > LineBytes {
		pushed += u.flushLine()
	}
	u.lineFill += size
	if u.lineFill == LineBytes {
		pushed += u.flushLine()
	}
	return pushed
}

// Flush pushes any partial line (end of checkpoint: the LSPU is drained
// when the checker core changes). Returns lines pushed.
func (u *LSPU) Flush() int {
	if u.lineFill == 0 {
		return 0
	}
	return u.flushLine()
}

func (u *LSPU) flushLine() int {
	u.lineFill = 0
	u.PushedLines++
	u.PushedBytes += LineBytes
	return 1
}

// Pending returns the bytes buffered but not yet pushed.
func (u *LSPU) Pending() int { return u.lineFill }

// Reset clears counters and buffer for a new run.
func (u *LSPU) Reset() {
	*u = LSPU{}
}
