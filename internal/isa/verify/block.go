package verify

import (
	"fmt"

	"paraverser/internal/isa"
)

// CheckBlockTable validates a basic-block table (isa.BuildBlockTable /
// Program.Blocks) against the verifier's own control-flow graph. It
// verifies:
//
//   - every block makes forward progress and stays in range;
//   - no block interior contains a CFG terminator, a multi-successor
//     instruction, a non-fall-through edge, or a block leader — i.e.
//     control can only enter at the first instruction and only leave
//     after the last;
//   - every CFG edge that is not a fall-through lands on a block leader
//     with a cut immediately before it;
//   - every program entry point is a leader.
//
// Returns nil when the table is consistent with the CFG.
func CheckBlockTable(p *isa.Program, bt *isa.BlockTable) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n := len(p.Insts)
	if len(bt.End) != n || len(bt.Leader) != n {
		return fmt.Errorf("verify %q: block table sized %d/%d, want %d",
			p.Name, len(bt.End), len(bt.Leader), n)
	}
	r := &Report{Program: p.Name}
	succs, terminator := buildCFG(p, r)

	for _, e := range p.Entries {
		if !bt.Leader[e] {
			return fmt.Errorf("verify %q: entry %d is not a block leader", p.Name, e)
		}
	}
	for pc := 0; pc < n; pc++ {
		end := int(bt.End[pc])
		if end <= pc || end > n {
			return fmt.Errorf("verify %q: End[%d] = %d out of range", p.Name, pc, end)
		}
		for i := pc; i < end-1; i++ {
			if terminator[i] {
				return fmt.Errorf("verify %q: block [%d,%d) holds terminator %d (%s) in its interior",
					p.Name, pc, end, i, p.Insts[i])
			}
			if len(succs[i]) != 1 || succs[i][0] != i+1 {
				return fmt.Errorf("verify %q: block [%d,%d) interior pc %d (%s) is not pure fall-through",
					p.Name, pc, end, i, p.Insts[i])
			}
			if bt.Leader[i+1] {
				return fmt.Errorf("verify %q: block [%d,%d) holds leader %d in its interior",
					p.Name, pc, end, i+1)
			}
		}
	}
	for pc := 0; pc < n; pc++ {
		for _, s := range succs[pc] {
			if s == pc+1 && len(succs[pc]) == 1 && int(bt.End[pc]) > pc+1 {
				continue // pure fall-through inside a block
			}
			if !bt.Leader[s] {
				return fmt.Errorf("verify %q: CFG edge %d->%d lands mid-block (target not a leader)",
					p.Name, pc, s)
			}
			if s > 0 && int(bt.End[s-1]) != s {
				return fmt.Errorf("verify %q: no cut before CFG edge target %d (End[%d]=%d)",
					p.Name, s, s-1, bt.End[s-1])
			}
		}
	}
	return nil
}
