package fuzz

import "paraverser/internal/isa"

// Minimize shrinks a diverging template to a smaller reproduction by
// delta-debugging over whole gadgets: because Emit reassembles any
// gadget subset into a self-consistent program (gadgets carry only
// internal branches), removal never needs offset surgery. A candidate
// subset counts as reproducing only when it still passes verifier
// screening AND diverges at the same stage — shrinking must not trade
// one bug for a different one.
//
// The result is the emitted program for the smallest reproducing mask
// found, or nil when no strict subset reproduces.
func Minimize(t *Template, seed uint64, stage string) *isa.Program {
	n := t.NumGadgets()
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	reproduces := func(m []bool) bool {
		p := t.Emit(m)
		rep, err := screen(p)
		if err != nil {
			return false
		}
		d := differential(p, rep, seed)
		return d != nil && d.Stage == stage
	}

	shrunk := false
	// Pass 1: halve-and-conquer — try dropping large chunks first.
	for chunk := n / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start < n; start += chunk {
			trial := make([]bool, n)
			copy(trial, mask)
			any := false
			for i := start; i < start+chunk && i < n; i++ {
				if trial[i] {
					trial[i] = false
					any = true
				}
			}
			if !any {
				continue
			}
			if reproduces(trial) {
				copy(mask, trial)
				shrunk = true
			}
		}
	}
	// Pass 2: single-gadget sweep to catch stragglers.
	for i := 0; i < n; i++ {
		if !mask[i] {
			continue
		}
		trial := make([]bool, n)
		copy(trial, mask)
		trial[i] = false
		if reproduces(trial) {
			copy(mask, trial)
			shrunk = true
		}
	}
	if !shrunk {
		return nil
	}
	return t.Emit(mask)
}
