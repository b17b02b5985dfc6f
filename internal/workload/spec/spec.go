//paralint:deterministic

// Package spec provides synthetic stand-ins for the SPECspeed 2017
// benchmarks (SPEC is proprietary; see DESIGN.md's substitution table).
// Each benchmark is a generated program whose instruction mix, working
// set, pointer-dependence, branch behaviour and instruction-cache
// footprint follow the benchmark's published characterisation — the
// properties that determine the paper's results: main-core IPC,
// checker-core IPC on the same stream, and load-store-log traffic per
// instruction. bwaves is generated FP-divide-heavy (the paper's outlier),
// gcc/perlbench/xalancbmk instruction-cache-hungry, mcf/omnetpp
// pointer-chasing and memory-bound, exchange2/imagick compute-bound.
package spec

import (
	"fmt"
	"math/rand"

	"paraverser/internal/asm"
	"paraverser/internal/isa"
)

// Profile parameterises one synthetic benchmark.
type Profile struct {
	Name string

	// Instruction-mix weights (relative, not normalised).
	IntALU float64
	IntMul float64
	IntDiv float64
	FPAdd  float64
	FPMul  float64
	FPDiv  float64
	Load   float64
	Store  float64
	Branch float64

	// BranchRandom is the fraction of generated branches whose direction
	// depends on pseudo-random data (unpredictable).
	BranchRandom float64
	// FPDepChain makes FP divides dependent on each other (bwaves-style
	// latency chains) rather than independent.
	FPDepChain bool
	// WorkingSet is the data footprint in bytes (power of two).
	WorkingSet int
	// ChaseFrac is the fraction of loads that are dependent pointer
	// chases (mcf/omnetpp).
	ChaseFrac float64
	// Streaming makes non-chase memory accesses walk the working set
	// sequentially (the FP suite's array sweeps) instead of randomly.
	Streaming bool
	// Blocks is the number of distinct code blocks; large values blow
	// the L1 instruction cache (gcc/perlbench/xalancbmk).
	Blocks int
	// OpsPerBlock is the number of mix-sampled operations per block.
	OpsPerBlock int
	// BlockRepeat makes each block an inner loop executed this many
	// times per visit (hot code), softening instruction-cache thrash to
	// realistic levels. Zero means 1.
	BlockRepeat int
	// AtomicFrac sprinkles SWP/GLD/SST operations into the memory mix.
	AtomicFrac float64
	// NonRepeatFrac sprinkles RAND/CYCLE instructions.
	NonRepeatFrac float64
}

// Profiles returns every SPECspeed 2017 benchmark model, in the paper's
// usual presentation order.
func Profiles() []Profile {
	return []Profile{
		// --- SPECspeed 2017 int ---
		{Name: "perlbench", IntALU: 50, IntMul: 2, Load: 22, Store: 12, Branch: 14,
			BranchRandom: 0.10, WorkingSet: 1 << 22, ChaseFrac: 0.15, Blocks: 340, OpsPerBlock: 24,
			BlockRepeat: 3, NonRepeatFrac: 0.002},
		{Name: "gcc", IntALU: 48, IntMul: 1, Load: 24, Store: 11, Branch: 16,
			BranchRandom: 0.12, WorkingSet: 1 << 23, ChaseFrac: 0.2, Blocks: 480, OpsPerBlock: 22,
			BlockRepeat: 3, NonRepeatFrac: 0.001},
		{Name: "mcf", IntALU: 36, IntMul: 1, Load: 34, Store: 9, Branch: 20,
			BranchRandom: 0.20, WorkingSet: 1 << 26, ChaseFrac: 0.6, Blocks: 20, OpsPerBlock: 26},
		{Name: "omnetpp", IntALU: 40, IntMul: 1, Load: 30, Store: 12, Branch: 17,
			BranchRandom: 0.15, WorkingSet: 1 << 25, ChaseFrac: 0.45, Blocks: 180, OpsPerBlock: 24,
			BlockRepeat: 2, NonRepeatFrac: 0.003},
		{Name: "xalancbmk", IntALU: 44, IntMul: 1, Load: 28, Store: 9, Branch: 18,
			BranchRandom: 0.08, WorkingSet: 1 << 24, ChaseFrac: 0.3, Blocks: 420, OpsPerBlock: 22, BlockRepeat: 3},
		{Name: "x264", IntALU: 52, IntMul: 6, Load: 24, Store: 10, Branch: 8,
			BranchRandom: 0.05, Streaming: true, WorkingSet: 1 << 23, Blocks: 60, OpsPerBlock: 30},
		{Name: "deepsjeng", IntALU: 46, IntMul: 3, IntDiv: 0.4, Load: 24, Store: 9, Branch: 18,
			BranchRandom: 0.25, WorkingSet: 1 << 23, ChaseFrac: 0.1, Blocks: 90, OpsPerBlock: 24},
		{Name: "leela", IntALU: 44, IntMul: 4, IntDiv: 0.5, Load: 26, Store: 9, Branch: 17,
			BranchRandom: 0.22, WorkingSet: 1 << 22, ChaseFrac: 0.15, Blocks: 80, OpsPerBlock: 24},
		{Name: "exchange2", IntALU: 58, IntMul: 2, Load: 16, Store: 9, Branch: 15,
			BranchRandom: 0.08, WorkingSet: 1 << 16, Blocks: 40, OpsPerBlock: 28},
		{Name: "xz", IntALU: 46, IntMul: 2, Load: 28, Store: 10, Branch: 14,
			BranchRandom: 0.25, WorkingSet: 1 << 25, ChaseFrac: 0.25, Blocks: 40, OpsPerBlock: 26},

		// --- SPECspeed 2017 fp ---
		{Name: "bwaves", IntALU: 18, FPAdd: 22, FPMul: 22, FPDiv: 9, Load: 20, Store: 6, Branch: 3,
			BranchRandom: 0.02, FPDepChain: true, Streaming: true, WorkingSet: 1 << 23, Blocks: 16, OpsPerBlock: 40},
		{Name: "cactuBSSN", IntALU: 20, FPAdd: 26, FPMul: 24, FPDiv: 1.5, Load: 18, Store: 7, Branch: 3,
			BranchRandom: 0.02, Streaming: true, WorkingSet: 1 << 24, Blocks: 60, OpsPerBlock: 40},
		{Name: "lbm", IntALU: 14, FPAdd: 26, FPMul: 22, FPDiv: 1, Load: 22, Store: 12, Branch: 3,
			BranchRandom: 0.02, Streaming: true, WorkingSet: 1 << 26, Blocks: 12, OpsPerBlock: 44},
		{Name: "wrf", IntALU: 24, FPAdd: 22, FPMul: 18, FPDiv: 2, Load: 20, Store: 8, Branch: 6,
			BranchRandom: 0.06, Streaming: true, WorkingSet: 1 << 24, Blocks: 200, OpsPerBlock: 30, BlockRepeat: 2},
		{Name: "cam4", IntALU: 26, FPAdd: 20, FPMul: 17, FPDiv: 2, Load: 20, Store: 8, Branch: 7,
			BranchRandom: 0.08, Streaming: true, WorkingSet: 1 << 24, Blocks: 220, OpsPerBlock: 28, BlockRepeat: 2},
		{Name: "pop2", IntALU: 24, FPAdd: 22, FPMul: 18, FPDiv: 2.5, Load: 20, Store: 8, Branch: 6,
			BranchRandom: 0.05, Streaming: true, WorkingSet: 1 << 24, Blocks: 160, OpsPerBlock: 30, BlockRepeat: 2},
		{Name: "imagick", IntALU: 26, FPAdd: 22, FPMul: 26, FPDiv: 2, Load: 16, Store: 5, Branch: 5,
			BranchRandom: 0.04, Streaming: true, WorkingSet: 1 << 20, Blocks: 30, OpsPerBlock: 36},
		{Name: "nab", IntALU: 26, FPAdd: 22, FPMul: 22, FPDiv: 1.5, Load: 18, Store: 6, Branch: 5,
			BranchRandom: 0.05, Streaming: true, WorkingSet: 1 << 22, Blocks: 50, OpsPerBlock: 32},
		{Name: "fotonik3d", IntALU: 18, FPAdd: 26, FPMul: 22, FPDiv: 0.8, Load: 22, Store: 9, Branch: 3,
			BranchRandom: 0.02, Streaming: true, WorkingSet: 1 << 25, Blocks: 24, OpsPerBlock: 40},
		{Name: "roms", IntALU: 20, FPAdd: 24, FPMul: 20, FPDiv: 2, Load: 22, Store: 9, Branch: 4,
			BranchRandom: 0.03, Streaming: true, WorkingSet: 1 << 25, Blocks: 60, OpsPerBlock: 34},
	}
}

// ByName finds a profile.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("spec: unknown benchmark %q", name)
}

// Names lists every benchmark.
func Names() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// Register conventions in generated code.
const (
	rLCG    = isa.Reg(28) // running pseudo-random state
	rBase   = isa.Reg(27) // data base
	rMask   = isa.Reg(26) // working-set mask (8-byte aligned)
	rChase  = isa.Reg(25) // current pointer-chase offset
	rIters  = isa.Reg(24) // remaining outer iterations
	rStream = isa.Reg(23) // sequential stream offset (Streaming profiles)
	rRep    = isa.Reg(22) // inner block-repeat counter
	rT0     = isa.Reg(20)
	rT1     = isa.Reg(21)
)

// maxWorkingSet bounds Profile.WorkingSet so the working-set fill's
// shortcut for rng.Intn stays exact (it holds for powers of two below
// 2^31).
const maxWorkingSet = 1 << 30

// workingSet returns the program's wsLen-byte data segment, generated
// on first touch: the working set in its first p.WorkingSet bytes, zero
// after. It also returns the generator positioned after the fill's
// draws.
//
// Word w of the set is rng.Intn(WorkingSet) &^ 7 of draw w: aligned
// in-set offsets, so pointer chases stay inside the set. One pass steps
// the generator over every word without storing any, saving its state
// at each chunk start; a chunk is then rebuilt from its saved state the
// first time a run reads it, byte for byte what a stored fill held.
func (p Profile) workingSet(wsLen int) (*isa.Segment, *lfg) {
	g := newLFG(seedFor(p.Name))
	const perChunk = isa.ChunkBytes / 8
	words := p.WorkingSet / 8
	filled := (words + perChunk - 1) / perChunk
	states := make([]uint64, filled*lfgLen)
	for c := 0; c < filled; c++ {
		g.save(states[c*lfgLen:])
		g.next(min(perChunk, words-c*perChunk), nil, 0)
	}
	mask := uint64(p.WorkingSet-1) &^ 7
	seg := isa.GeneratedSegment(wsLen, func(c int, dst []byte) {
		if c >= filled {
			return // the zero tail pad
		}
		var w lfg
		w.restore(states[c*lfgLen:])
		w.next(min(perChunk, words-c*perChunk), dst, mask)
	})
	return seg, g
}

// Build generates the benchmark program. iters is the number of block
// executions; total instructions are roughly iters*(OpsPerBlock*~2+10).
func (p Profile) Build(iters int64) (*isa.Program, error) {
	if p.WorkingSet&(p.WorkingSet-1) != 0 || p.WorkingSet < 4096 || p.WorkingSet > maxWorkingSet {
		return nil, fmt.Errorf("spec %s: working set %d not a power of two in [4KiB, 1GiB]", p.Name, p.WorkingSet)
	}
	if p.Blocks < 1 || p.OpsPerBlock < 1 {
		return nil, fmt.Errorf("spec %s: empty code shape", p.Name)
	}
	b := asm.New("spec." + p.Name)

	// Data: the working set. Streaming profiles address at immediate
	// offsets up to OpsPerBlock*8 past the walking pointer, which wraps
	// to at most WorkingSet-8 — the tail pad keeps those accesses inside
	// the declared segment (zero-filled, so results are unchanged; the
	// wrap mask still covers exactly the working set).
	pad := 0
	if p.Streaming {
		pad = (p.OpsPerBlock + 1) * 8
	}
	// The code below draws from the same stream after the fill, exactly
	// as from rand.NewSource(seedFor(p.Name)); TestProfilesPinned holds
	// every program to its recorded bytes.
	seg, g := p.workingSet(p.WorkingSet + pad)
	ws := b.Segment(seg)
	rng := rand.New(g)

	// Prologue.
	b.Li(rBase, int64(isa.DefaultDataBase+ws))
	b.Li(rMask, int64(p.WorkingSet-1)&^7)
	b.Li(rLCG, int64(seedFor(p.Name))|1)
	b.Li(rChase, 0)
	b.Mov(rStream, rBase)
	b.Li(rIters, iters)
	for i := isa.Reg(1); i <= 14; i++ {
		b.Li(rT0, int64(i)*3+1)
		b.Fcvtif(i, rT0)
	}
	// Seed the block scratch pool (r5-r14): the emulator zero-fills the
	// register file, so reading these uninitialised would still be
	// deterministic, but distinct non-zero seeds keep the generated ALU
	// mix from collapsing onto zero values and make the programs clean
	// under the static verifier's use-before-def rule.
	for i := isa.Reg(5); i <= 14; i++ {
		b.Li(i, int64(i)*2654435761+17)
	}
	b.Jmp("block0")
	b.Label("exit")
	b.Halt()

	// Blocks form a fixed chain visiting every block per round (the
	// realistic case: program phases repeat, so branch targets are
	// learnable, while a code footprint beyond the L1I still streams
	// through it). Each block steps the LCG so data addresses stay
	// well distributed.
	order := rng.Perm(p.Blocks)
	next := make([]int, p.Blocks)
	for i, blk := range order {
		next[blk] = order[(i+1)%p.Blocks]
	}
	repeat := p.BlockRepeat
	if repeat < 1 {
		repeat = 1
	}
	for blk := 0; blk < p.Blocks; blk++ {
		b.Label(fmt.Sprintf("block%d", blk))
		b.Li(rRep, int64(repeat))
		b.Label(fmt.Sprintf("block%d_hot", blk))
		// Advance the pseudo-random stream (xorshift).
		b.Srli(rT0, rLCG, 13)
		b.Xor(rLCG, rLCG, rT0)
		b.Slli(rT0, rLCG, 7)
		b.Xor(rLCG, rLCG, rT0)
		p.emitBlock(b, rng, blk)
		if p.Streaming {
			b.Addi(rStream, rStream, int64(p.OpsPerBlock*8))
			b.Sub(rStream, rStream, rBase)
			b.And(rStream, rStream, rMask)
			b.Add(rStream, rStream, rBase)
		}
		b.Addi(rRep, rRep, -1)
		b.Blt(isa.Zero, rRep, fmt.Sprintf("block%d_hot", blk))
		b.Addi(rIters, rIters, -1)
		b.Blt(rIters, isa.Zero, "exit")
		b.Jmp(fmt.Sprintf("block%d", next[blk]))
	}

	return b.Build()
}

// MustBuild is Build for the static profile table.
func (p Profile) MustBuild(iters int64) *isa.Program {
	prog, err := p.Build(iters)
	if err != nil {
		panic(err)
	}
	return prog
}

// opKind enumerates generator op choices.
type opKind int

const (
	opIntALU opKind = iota
	opIntMul
	opIntDiv
	opFPAdd
	opFPMul
	opFPDiv
	opLoad
	opStore
	opBranch
)

func (p Profile) weights() []float64 {
	return []float64{p.IntALU, p.IntMul, p.IntDiv, p.FPAdd, p.FPMul, p.FPDiv, p.Load, p.Store, p.Branch}
}

func sample(rng *rand.Rand, w []float64) opKind {
	var total float64
	for _, x := range w {
		total += x
	}
	r := rng.Float64() * total
	for i, x := range w {
		r -= x
		if r < 0 {
			return opKind(i)
		}
	}
	return opIntALU
}

// emitBlock generates one block's operation sequence.
func (p Profile) emitBlock(b *asm.Builder, rng *rand.Rand, blk int) {
	w := p.weights()
	intReg := func() isa.Reg { return isa.Reg(5 + rng.Intn(10)) } // r5-r14
	fpReg := func() isa.Reg { return isa.Reg(1 + rng.Intn(12)) }  // f1-f12

	// Streaming profiles address memory at immediate offsets from a
	// walking base pointer (an unrolled array sweep: one instruction per
	// access, realistic memory density); others scramble an address from
	// the LCG.
	streamOff := int64(0)
	addrInto := func(shift int) isa.Reg {
		if p.Streaming {
			streamOff += 8
			return rStream
		}
		b.Srli(rT0, rLCG, int64(shift))
		b.Xori(rLCG, rLCG, int64((blk*2654435761+shift)&0x7FFFFF))
		b.And(rT0, rT0, rMask)
		b.Add(rT0, rBase, rT0)
		streamOff = 0
		return rT0
	}
	curOff := func() int64 {
		if p.Streaming {
			return streamOff
		}
		return 0
	}

	for op := 0; op < p.OpsPerBlock; op++ {
		if p.NonRepeatFrac > 0 && rng.Float64() < p.NonRepeatFrac {
			if rng.Intn(2) == 0 {
				b.Rand(intReg())
			} else {
				b.Cycle(intReg())
			}
			continue
		}
		switch sample(rng, w) {
		case opIntALU:
			switch rng.Intn(4) {
			case 0:
				b.Add(intReg(), intReg(), intReg())
			case 1:
				b.Xor(intReg(), intReg(), intReg())
			case 2:
				b.Addi(intReg(), intReg(), int64(rng.Intn(255))-127)
			default:
				b.Slli(intReg(), intReg(), int64(rng.Intn(15)+1))
			}
		case opIntMul:
			b.Mul(intReg(), intReg(), intReg())
		case opIntDiv:
			r := intReg()
			b.Ori(rT1, r, 1) // avoid divide-by-zero
			b.Div(intReg(), intReg(), rT1)
		case opFPAdd:
			b.Fadd(fpReg(), fpReg(), fpReg())
		case opFPMul:
			b.Fmul(fpReg(), fpReg(), fpReg())
		case opFPDiv:
			if p.FPDepChain {
				// Dependent chain: each divide waits for the previous
				// (bwaves' latency-bound behaviour on in-order cores).
				b.Fdiv(13, 13, 14)
				b.Fmax(14, 14, 14) // keep divisor stable
			} else {
				b.Fdiv(fpReg(), fpReg(), 14)
			}
		case opLoad:
			if p.AtomicFrac > 0 && rng.Float64() < p.AtomicFrac {
				r := addrInto(rng.Intn(16) + 5)
				b.Swp(intReg(), r, rT1)
				continue
			}
			if rng.Float64() < p.ChaseFrac {
				// Dependent chase: the loaded value is the next offset.
				b.And(rChase, rChase, rMask)
				b.Add(rT0, rBase, rChase)
				b.Ld(8, rChase, rT0, 0)
			} else {
				r := addrInto(rng.Intn(16) + 5)
				if rng.Intn(8) == 0 {
					b.Gld(8, intReg(), r, rBase, curOff())
				} else if p.FPAdd > p.IntALU {
					b.Fld(fpReg(), r, curOff())
				} else {
					b.Ld(8, intReg(), r, curOff())
				}
			}
		case opStore:
			r := addrInto(rng.Intn(16) + 5)
			if p.FPAdd > p.IntALU {
				b.Fst(fpReg(), r, curOff())
			} else {
				b.St(8, intReg(), r, curOff())
			}
		case opBranch:
			lbl := fmt.Sprintf("b%d_%d", blk, op)
			if rng.Float64() < p.BranchRandom {
				b.Andi(rT1, rLCG, 1<<uint(rng.Intn(4)))
				b.Beq(rT1, isa.Zero, lbl)
			} else {
				b.Bge(rIters, isa.Zero, lbl) // almost always taken
				b.Add(intReg(), intReg(), intReg())
			}
			b.Add(intReg(), intReg(), intReg())
			b.Label(lbl)
		}
	}
}

func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h | 1
}
