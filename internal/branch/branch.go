// Package branch implements the branch predictors used by the core timing
// models: a bimodal predictor for tiny cores and a TAGE-lite predictor
// (tagged geometric history lengths) standing in for the MPP-TAGE
// predictors in the paper's Table I, plus a branch target buffer.
package branch

import (
	"sync"

	"paraverser/internal/isa"
)

// Predictor predicts conditional branch directions and learns from
// outcomes.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome.
	Update(pc uint64, taken bool)
}

// counter is a 2-bit saturating counter.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) train(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is a simple PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter
	mask  uint64
}

var _ Predictor = (*Bimodal)(nil)

// NewBimodal returns a bimodal predictor with 2^logSize entries.
func NewBimodal(logSize uint) *Bimodal {
	n := uint64(1) << logSize
	return &Bimodal{table: make([]counter, n), mask: n - 1}
}

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[pc&b.mask].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := pc & b.mask
	b.table[i] = b.table[i].train(taken)
}

// tageEntry is one tagged component entry.
type tageEntry struct {
	tag    uint16
	ctr    counter
	useful uint8
}

// TAGE is a TAGE-lite predictor: a bimodal base plus N tagged components
// indexed by geometrically increasing global-history lengths. It captures
// the behaviour that matters for the paper's workloads: loop branches and
// short correlated patterns predict nearly perfectly, data-dependent
// branches (deepsjeng, leela) mispredict often.
type TAGE struct {
	base    *Bimodal
	comps   [][]tageEntry
	hlens   []uint
	mask    uint64
	history uint64
}

var _ Predictor = (*TAGE)(nil)

// NewTAGE returns a TAGE-lite predictor. logSize sizes each tagged
// component at 2^logSize entries; histLens gives the global-history bits
// used by each component, shortest first.
func NewTAGE(logSize uint, histLens []uint) *TAGE {
	n := uint64(1) << logSize
	t := &TAGE{
		base:  NewBimodal(logSize + 1),
		hlens: histLens,
		mask:  n - 1,
	}
	t.comps = make([][]tageEntry, len(histLens))
	for i := range t.comps {
		t.comps[i] = make([]tageEntry, n)
	}
	return t
}

// NewDefaultTAGE returns the configuration used for big cores (a stand-in
// for the 64KiB MPP-TAGE of the Cortex-X2 model).
func NewDefaultTAGE() *TAGE { return NewTAGE(13, []uint{4, 8, 16, 32, 64}) }

// NewSmallTAGE returns the configuration used for little cores (8KiB).
func NewSmallTAGE() *TAGE { return NewTAGE(9, []uint{4, 8, 16}) }

func (t *TAGE) index(pc uint64, comp int) uint64 {
	h := t.history & (1<<t.hlens[comp] - 1)
	// Fold history into the index with a couple of xor-shifts.
	h ^= h >> 17
	h ^= h >> 7
	return (pc ^ h ^ uint64(comp)*0x9E3779B9) & t.mask
}

func (t *TAGE) tag(pc uint64, comp int) uint16 {
	h := t.history & (1<<t.hlens[comp] - 1)
	return uint16((pc>>2 ^ h ^ h>>11 ^ uint64(comp)<<5) & 0x3FF)
}

// lookup finds the longest-history matching component, returning its
// index or -1 for a base prediction.
func (t *TAGE) lookup(pc uint64) (comp int, idx uint64) {
	for c := len(t.comps) - 1; c >= 0; c-- {
		i := t.index(pc, c)
		if t.comps[c][i].tag == t.tag(pc, c) {
			return c, i
		}
	}
	return -1, 0
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	if c, i := t.lookup(pc); c >= 0 {
		return t.comps[c][i].ctr.taken()
	}
	return t.base.Predict(pc)
}

// Update implements Predictor.
func (t *TAGE) Update(pc uint64, taken bool) {
	comp, idx := t.lookup(pc)
	var predicted bool
	if comp >= 0 {
		e := &t.comps[comp][idx]
		predicted = e.ctr.taken()
		e.ctr = e.ctr.train(taken)
		if predicted == taken && e.useful < 3 {
			e.useful++
		}
	} else {
		predicted = t.base.Predict(pc)
		t.base.Update(pc, taken)
	}

	// On a misprediction, try to allocate in a longer-history component.
	if predicted != taken {
		for c := comp + 1; c < len(t.comps); c++ {
			i := t.index(pc, c)
			e := &t.comps[c][i]
			if e.useful == 0 {
				*e = tageEntry{tag: t.tag(pc, c), ctr: initCtr(taken)}
				break
			}
			e.useful--
		}
	}

	t.history = t.history<<1 | boolBit(taken)
}

func initCtr(taken bool) counter {
	if taken {
		return 2
	}
	return 1
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a direct-mapped branch target buffer. Indirect jumps (JALR) whose
// targets change mispredict; direct branches and returns hit after first
// use.
type BTB struct {
	tags    []uint64
	targets []uint64
	mask    uint64
}

// NewBTB returns a BTB with 2^logSize entries.
func NewBTB(logSize uint) *BTB {
	n := uint64(1) << logSize
	return &BTB{tags: make([]uint64, n), targets: make([]uint64, n), mask: n - 1}
}

// Lookup returns the predicted target and whether the entry was present.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	i := pc & b.mask
	if b.tags[i] == pc+1 { // +1 so the zero tag means empty
		return b.targets[i], true
	}
	return 0, false
}

// Update records the actual target for pc.
func (b *BTB) Update(pc, target uint64) {
	i := pc & b.mask
	b.tags[i] = pc + 1
	b.targets[i] = target
}

// Stats accumulates prediction accuracy for reporting.
type Stats struct {
	Lookups     uint64
	Mispredicts uint64
}

// MispredictRate returns the fraction of lookups that mispredicted.
func (s *Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// Unit bundles a direction predictor and a BTB, and exposes the single
// call the timing model makes per control-flow instruction: was this
// branch or jump predicted correctly?
type Unit struct {
	Dir   Predictor
	BTB   *BTB
	Stats Stats
}

// NewUnit returns a branch unit around the given direction predictor.
func NewUnit(dir Predictor, btbLog uint) *Unit {
	return &Unit{Dir: dir, BTB: NewBTB(btbLog)}
}

// corePools recycles released core units, little at 0 and big at 1: a
// big unit's ~300 KiB of tables dominate a short simulation's allocation.
var corePools [2]sync.Pool

// NewCoreUnit returns a fresh or recycled branch unit of a big core
// (NewDefaultTAGE, 8K-entry BTB) or a little one (NewSmallTAGE, 2K BTB).
func NewCoreUnit(big bool) *Unit {
	if u, ok := corePools[boolBit(big)].Get().(*Unit); ok {
		return u
	}
	if big {
		return NewUnit(NewDefaultTAGE(), 13)
	}
	return NewUnit(NewSmallTAGE(), 11)
}

// Release resets a unit built by NewCoreUnit to the state NewCoreUnit
// builds and recycles it; u must not be used afterwards.
func (u *Unit) Release() {
	t := u.Dir.(*TAGE)
	for _, c := range t.comps {
		clear(c)
	}
	clear(t.base.table)
	t.history = 0
	clear(u.BTB.tags)
	clear(u.BTB.targets)
	u.Stats = Stats{}
	corePools[boolBit(len(t.hlens) == 5)].Put(u)
}

// Resolve predicts and then trains on the branch at pc with actual
// direction taken and target. It returns true when the prediction
// (direction and, when taken, target) was correct.
func (u *Unit) Resolve(op isa.Op, pc uint64, taken bool, target uint64) bool {
	u.Stats.Lookups++
	correct := true
	switch isa.ClassOf(op) {
	case isa.ClassBranch:
		predTaken := u.Dir.Predict(pc)
		u.Dir.Update(pc, taken)
		if predTaken != taken {
			correct = false
		} else if taken {
			t, ok := u.BTB.Lookup(pc)
			correct = ok && t == target
		}
		u.BTB.Update(pc, target)
	case isa.ClassJump:
		if op == isa.OpJAL {
			// Direct jumps predict perfectly after the first sighting.
			_, ok := u.BTB.Lookup(pc)
			correct = ok
		} else {
			t, ok := u.BTB.Lookup(pc)
			correct = ok && t == target
		}
		u.BTB.Update(pc, target)
	default:
		return true
	}
	if !correct {
		u.Stats.Mispredicts++
	}
	return correct
}
