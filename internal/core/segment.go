package core

import "paraverser/internal/emu"

// Segment is one checkpointed interval of main-core execution: the unit
// of work handed to a checker core. It carries everything the induction
// check needs — the start register file, the logged entries, the end
// register file — plus the accounting the timing model needs.
type Segment struct {
	// Seq is the segment's position in program order for its hart.
	Seq int
	// Hart is the main-core hart the segment came from.
	Hart int
	// StartPC/Start are the architectural state at segment entry.
	Start emu.ArchState
	// End is the architectural state after the last instruction.
	End emu.ArchState
	// Entries are the logged loads/stores/non-repeatables, in commit
	// order.
	Entries []Entry
	// Insts is the number of instructions in the segment.
	Insts uint64
	// LogBytes is the LSL payload pushed over the NoC for this segment.
	LogBytes int
	// LogLines is the number of cache lines of log (NoC messages).
	LogLines int
	// Digest is the main core's SHA-256 over verification metadata (Hash
	// Mode only).
	Digest [32]byte
	// Reason records why the segment ended.
	Reason BoundaryReason
	// StartNS and EndNS are the wall-clock times the main core entered
	// and left the segment (filled by the orchestrator).
	StartNS float64
	EndNS   float64
}

// BoundaryReason explains a checkpoint boundary (section IV-F).
type BoundaryReason uint8

// Boundary reasons. Enums start at one.
const (
	BoundaryInvalid BoundaryReason = iota
	// BoundaryLSLFull fires when the checker's LSL$ has no room for the
	// next line of entries.
	BoundaryLSLFull
	// BoundaryTimeout fires at the 5000-instruction timer.
	BoundaryTimeout
	// BoundaryInterrupt fires on an interrupt or context switch
	// (section IV-J): register checkpoints are taken so interrupts never
	// need replaying.
	BoundaryInterrupt
	// BoundaryHalt fires when the program ends.
	BoundaryHalt
)

func (r BoundaryReason) String() string {
	switch r {
	case BoundaryLSLFull:
		return "lsl-full"
	case BoundaryTimeout:
		return "timeout"
	case BoundaryInterrupt:
		return "interrupt"
	case BoundaryHalt:
		return "halt"
	default:
		return "invalid"
	}
}

// Counter is the instruction counter unit (section IV-F): it fires a
// checkpoint when the LSL$ fills, at the instruction timeout, or on an
// interrupt. The same committed-instruction count is used on the checker
// side to end the check at exactly the matching instruction.
type Counter struct {
	// TimeoutInsts is the instruction timeout (5000 in Table I).
	TimeoutInsts uint64
	// CapacityLines is the allocated checker's LSL$ capacity.
	CapacityLines int

	insts uint64
	lines int
}

// Reset restarts the counter for a new segment with the given LSL$
// capacity.
func (c *Counter) Reset(capacityLines int) {
	c.CapacityLines = capacityLines
	c.insts = 0
	c.lines = 0
}

// Tick advances the counter by one instruction that pushed pushedLines
// log lines, returning the boundary reason if a checkpoint must be taken
// now, or BoundaryInvalid to continue.
func (c *Counter) Tick(pushedLines int) BoundaryReason {
	c.insts++
	c.lines += pushedLines
	// Keep one line of headroom so the LSPU flush at the boundary always
	// fits in the LSL$.
	if c.CapacityLines > 0 && c.lines >= c.CapacityLines-1 {
		return BoundaryLSLFull
	}
	if c.TimeoutInsts > 0 && c.insts >= c.TimeoutInsts {
		return BoundaryTimeout
	}
	return BoundaryInvalid
}

// Insts returns instructions counted since the last reset.
func (c *Counter) Insts() uint64 { return c.insts }
