package emu

import "paraverser/internal/isa"

// MemKind distinguishes the two directions of a memory operation.
type MemKind uint8

// Memory operation kinds. Enums start at one.
const (
	MemInvalid MemKind = iota
	MemLoad
	MemStore
)

// MemOp records one architectural memory access performed by an
// instruction: its effective address, size and the data moved. For loads,
// Data is the value observed; for stores, the value written.
type MemOp struct {
	Kind MemKind
	Addr uint64
	Size uint8
	Data uint64
}

// MaxMemOps is the most architectural accesses a single instruction can
// perform (SWP: load+store; GLD: two loads; SST: two stores).
const MaxMemOps = 2

// Effect is the complete architectural record of one executed instruction.
// It is everything the load-store log, the timing models and the checker
// need: the instruction, its control-flow outcome, its memory operations,
// any non-repeatable value it produced, and the destination write.
//
// Effects are reused across steps to avoid allocation; consumers that
// retain one must copy it.
type Effect struct {
	// Field order is deliberate: every scalar the timing models and the
	// segment protocol touch per instruction sits ahead of the Mem
	// array, so the common NMem==0 effect is consumed from the struct's
	// leading cache line(s) without pulling in the memory-op records.
	PC     uint64
	Inst   isa.Inst
	Class  isa.Class
	NextPC uint64
	Taken  bool // branch/jump redirected control flow

	// Dec points at the predecoded record for Inst when the effect was
	// produced by a decoded-program step; timing models use it to skip
	// re-deriving per-op metadata. May be nil for hand-built effects.
	Dec *isa.DecInst

	NMem int

	NonRepeat    bool   // instruction produced a non-repeatable value
	NonRepeatVal uint64 // the value (also the payload logged for replay)

	WroteInt bool   // wrote integer register Inst.Rd
	WroteFP  bool   // wrote FP register Inst.Rd
	Value    uint64 // raw bits of the value written (if any)

	Halted bool

	Mem [MaxMemOps]MemOp
}
