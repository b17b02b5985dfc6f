package core

import (
	"errors"

	"paraverser/internal/emu"
)

// logCursor walks a segment's load-store log in commit order. Both
// replay environments — the lockstep CheckerEnv and the divergent-mode
// DivergentEnv — consume the log through one cursor, so the two replay
// domains share the log-accounting semantics (exhaustion, leftover
// entries, entry indexing for mismatch reports).
type logCursor struct {
	seg      *Segment
	entryIdx int
	opIdx    int
}

// errLogExhausted is returned internally when the checker consumes more
// operations than were logged; the verifier converts it into a mismatch.
var errLogExhausted = errors.New("core: load-store log exhausted")

// next fetches the next logged operation in commit order.
func (c *logCursor) next() (MemRec, int, error) {
	for c.entryIdx < len(c.seg.Entries) {
		entry := c.seg.Entries[c.entryIdx]
		if c.opIdx < len(entry.Ops) {
			op := entry.Ops[c.opIdx]
			idx := c.entryIdx
			c.opIdx++
			if c.opIdx >= len(entry.Ops) {
				c.entryIdx++
				c.opIdx = 0
			}
			return op, idx, nil
		}
		c.entryIdx++
		c.opIdx = 0
	}
	return MemRec{}, c.entryIdx, errLogExhausted
}

// Consumed reports whether the checker used exactly the logged entries.
func (c *logCursor) Consumed() bool {
	return c.entryIdx >= len(c.seg.Entries)
}

// pos returns the current entry index, for mismatch attribution.
func (c *logCursor) pos() int { return c.entryIdx }

// CheckerEnv is the emu.Env a checker core executes against: every load,
// atomic and non-repeatable value is served from the segment's load-store
// log in program order, every address/size/store-datum is compared by the
// LSC (or absorbed into the Hash Mode digest), and nothing touches real
// memory — a checker thread "cannot read data" (section IV footnote 12).
type CheckerEnv struct {
	logCursor
	lsc *LSC
	rcu *RCU
}

var _ emu.Env = (*CheckerEnv)(nil)

// Load implements emu.Env: the LSL$ supplies the original run's data so
// replay is exact regardless of intervening multicore communication
// (section IV-B); the LSC verifies the address.
func (e *CheckerEnv) Load(addr uint64, size uint8) (uint64, error) {
	op, idx, err := e.next()
	if err != nil {
		return 0, err
	}
	if e.rcu.HashMode() {
		// Addresses are verified via the digest, not the LSC.
		e.rcu.AbsorbVerification(MemRec{Addr: addr, Size: size, Load: true})
		return op.Data, nil
	}
	return e.lsc.CheckLoad(idx, op, addr, size), nil
}

// Store implements emu.Env: nothing is written; the LSC (or digest)
// verifies address, size and data.
func (e *CheckerEnv) Store(addr uint64, size uint8, val uint64) error {
	op, idx, err := e.next()
	if err != nil {
		return err
	}
	if e.rcu.HashMode() {
		e.rcu.AbsorbVerification(MemRec{Addr: addr, Size: size, Data: truncTo(val, size)})
		return nil
	}
	e.lsc.CheckStore(idx, op, addr, size, val)
	return nil
}

// Swap implements emu.Env: the logged entry holds loaded-then-stored
// data; the load payload is returned, the store side verified.
func (e *CheckerEnv) Swap(addr uint64, newVal uint64) (uint64, error) {
	old, err := e.Load(addr, 8)
	if err != nil {
		return 0, err
	}
	if err := e.Store(addr, 8, newVal); err != nil {
		return 0, err
	}
	return old, nil
}

// Rand implements emu.Env: non-repeatable values replay from the log.
func (e *CheckerEnv) Rand() (uint64, error) {
	op, _, err := e.next()
	if err != nil {
		return 0, err
	}
	return op.Data, nil
}

// CycleRead implements emu.Env: same replay path as Rand.
func (e *CheckerEnv) CycleRead(uint64) (uint64, error) {
	op, _, err := e.next()
	if err != nil {
		return 0, err
	}
	return op.Data, nil
}
