package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"paraverser/internal/emu"
)

// RCUBytes is the storage of one register checkpoint: PC + 32 integer +
// 32 FP 64-bit registers plus tags, the paper's 776B RCU (section VII-E).
const RCUBytes = 776

// RCU is the Register Checkpointing Unit (section IV-D). On a main core
// it takes start and end copies of the architectural register file and
// forwards them to the checker; on a checker core it stores the end
// checkpoint and compares it against the checker's own architectural
// state when the instruction counter fires. In Hash Mode it also owns the
// running SHA-256 over verification metadata.
type RCU struct {
	hashMode bool
	hasher   hashState
}

// hashState accumulates the Hash Mode digest incrementally.
type hashState struct {
	buf []byte
}

func (h *hashState) add(words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.buf = append(h.buf, b[:]...)
	}
}

func (h *hashState) sum() [32]byte {
	s := sha256.Sum256(h.buf)
	h.buf = h.buf[:0]
	return s
}

// NewRCU returns a unit; hashMode enables digest accumulation.
func NewRCU(hashMode bool) *RCU { return &RCU{hashMode: hashMode} }

// Compare checks a checker core's architectural state against the stored
// end checkpoint, returning true when they match. This is the induction
// step: segment N is correct if its loads/stores matched and its end
// register file equals the start file of segment N+1 (section III-B).
// Hardware compares register bits, so FP registers compare bitwise: two
// identical NaNs match, +0 and -0 do not.
func (r *RCU) Compare(end *emu.ArchState, got *emu.ArchState) bool {
	return archEqual(end, got)
}

// archEqual is the RCU's bitwise state comparison, shared with the
// SpecCache's continuity check (spec.go).
func archEqual(a, b *emu.ArchState) bool {
	if a.PC != b.PC || a.X != b.X {
		return false
	}
	for i := range a.F {
		if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
			return false
		}
	}
	return true
}

// AbsorbVerification folds verification metadata (address, size, stored
// data — the data NOT shipped in Hash Mode) into the running digest.
func (r *RCU) AbsorbVerification(op MemRec) {
	if !r.hashMode {
		return
	}
	word := uint64(op.Size)
	if !op.Load {
		word |= 1 << 8
	}
	if op.Load {
		r.hasher.add(op.Addr, word)
	} else {
		r.hasher.add(op.Addr, word, op.Data)
	}
}

// Digest finalises and resets the running hash (computed at checkpoint
// end and sent alongside the register checkpoint, section IV-I).
func (r *RCU) Digest() [32]byte { return r.hasher.sum() }

// HashMode reports whether the unit accumulates digests.
func (r *RCU) HashMode() bool { return r.hashMode }

// CheckpointTransferBytes returns the NoC payload of one register
// checkpoint push (plus the 32-byte digest in Hash Mode).
func (r *RCU) CheckpointTransferBytes() int {
	if r.hashMode {
		return RCUBytes + 32
	}
	return RCUBytes
}
