//paralint:deterministic

// Package parsec provides two-thread shared-memory kernels standing in
// for the PARSEC suite at simmedium scale (see DESIGN.md's substitution
// table): an option-pricing map (blackscholes), a Monte-Carlo summation
// using non-repeatable random numbers (swaptions), a nearest-centre scan
// (streamcluster), a barrier-synchronised grid stencil (fluidanimate), a
// lock-based random-swap anneal (canneal), and a producer/consumer
// pipeline (dedup). Together they exercise everything section IV-J
// requires of the logging: cross-thread communication, atomics, spinning
// synchronisation and races that must replay exactly from the log.
package parsec

import (
	"fmt"
	"math"

	"paraverser/internal/asm"
	"paraverser/internal/isa"
)

// Kernel couples a program with the name the harness reports.
type Kernel struct {
	Name string
	Prog *isa.Program
}

// Kernels builds the whole suite at a given scale (element count per
// thread; 0 uses a simmedium-ish default).
func Kernels(scale int) []Kernel {
	if scale <= 0 {
		scale = 2000
	}
	return []Kernel{
		{Name: "blackscholes", Prog: Blackscholes(scale)},
		{Name: "swaptions", Prog: Swaptions(scale / 4)},
		{Name: "streamcluster", Prog: Streamcluster(scale, 8)},
		{Name: "fluidanimate", Prog: Fluidanimate(64, scale/256+2)},
		{Name: "canneal", Prog: Canneal(scale, scale/2)},
		{Name: "dedup", Prog: Dedup(scale)},
	}
}

// emitLock emits a spinlock acquire on the address in rLock, clobbering
// rT.
func emitLock(b *asm.Builder, label string, rLock, rT isa.Reg) {
	b.Jmp(label + "_try")
	b.Label(label)
	b.Pause() // spin-wait hint: idle instead of hammering the line
	b.Label(label + "_try")
	b.Li(rT, 1)
	b.Swp(rT, rLock, rT)
	b.Bne(rT, isa.Zero, label)
}

// emitUnlock releases the spinlock.
func emitUnlock(b *asm.Builder, rLock isa.Reg) {
	b.St(8, isa.Zero, rLock, 0)
}

// emitBarrier emits a two-thread barrier: counter increment under the
// lock, then spin until both arrive. counters is a per-phase array so no
// reset race exists; rPhaseOff must hold the current phase's byte offset.
func emitBarrier(b *asm.Builder, tag string, rLock, rCnts, rPhaseOff isa.Reg, rT, rT2 isa.Reg) {
	emitLock(b, tag+"_acq", rLock, rT)
	b.Add(rT2, rCnts, rPhaseOff)
	b.Ld(8, rT, rT2, 0)
	b.Addi(rT, rT, 1)
	b.St(8, rT, rT2, 0)
	emitUnlock(b, rLock)
	b.Li(rT, 2)
	b.Jmp(tag + "_check")
	b.Label(tag + "_wait")
	b.Pause()
	b.Label(tag + "_check")
	b.Add(rT2, rCnts, rPhaseOff)
	b.Ld(8, rT2, rT2, 0)
	b.Blt(rT2, rT, tag+"_wait")
}

// Blackscholes prices n options per thread with an inlined
// rational-polynomial normal-CDF approximation (fdiv/fsqrt-heavy FP, no
// sharing). Results land in a float64 array: thread 0 writes [0,n),
// thread 1 writes [n,2n).
func Blackscholes(n int) *isa.Program { return BlackscholesThreads(n, 2) }

// BlackscholesThreads builds the kernel with a configurable hart count
// (1 or 2) over the same data layout: thread t still prices its own
// [t*n, (t+1)*n) slice, so the single-hart build simply leaves slice 1
// unwritten. One hart is what the divergent checking mode requires —
// its private canonical memory image cannot track another hart's
// stores — so the suite keeps a PARSEC-representative kernel available
// to divergent-mode experiments.
func BlackscholesThreads(n, threads int) *isa.Program {
	if threads < 1 || threads > 2 {
		panic(fmt.Sprintf("parsec: blackscholes supports 1 or 2 threads, got %d", threads))
	}
	b := asm.New("parsec.blackscholes")
	spot := b.Reserve(2 * n * 8)
	for i := 0; i < 2*n; i++ {
		b.SetFloat64(spot+uint64(i*8), 80+float64(i%40))
	}
	out := b.Reserve(2 * n * 8)
	b.Sym("out", out)

	thread := func(tid int) {
		pfx := fmt.Sprintf("t%d_", tid)
		const (
			rIn, rOut, rI, rN, rT = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8), isa.Reg(9)
			fS, fT, fU, fK, fH    = isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
		)
		b.Entry()
		b.Li(rIn, int64(isa.DefaultDataBase+spot)+int64(tid*n*8))
		b.Li(rOut, int64(isa.DefaultDataBase+out)+int64(tid*n*8))
		b.Li(rI, 0)
		b.Li(rN, int64(n))
		b.Li(rT, 100)
		b.Fcvtif(fK, rT) // strike
		b.Li(rT, 1)
		b.Fcvtif(fT, rT)
		b.Fdiv(fK, fT, fK) // reciprocal strike, hoisted out of the loop
		b.Li(rT, 2)
		b.Fcvtif(fH, rT)
		b.Label(pfx + "loop")
		b.Bge(rI, rN, pfx+"done")
		b.Slli(rT, rI, 3)
		b.Add(rT, rT, rIn)
		b.Fld(fS, rT, 0)
		// d = (S*(1/K) - 1) / sqrt(S*(1/K) + 1); price = S * cdf-ish(d)
		b.Fmul(fT, fS, fK)
		b.Fsub(fU, fT, fH)
		b.Fadd(fT, fT, fH)
		b.Fsqrt(fT, fT)
		b.Fdiv(fU, fU, fT)
		// rational approx: u / (1 + |u|) * 0.5 + 0.5-ish (the one true divide)
		b.Fabs(fT, fU)
		b.Fadd(fT, fT, fH)
		b.Fdiv(fU, fU, fT)
		b.Fmul(fU, fU, fS)
		b.Fadd(fU, fU, fS)
		b.Slli(rT, rI, 3)
		b.Add(rT, rT, rOut)
		b.Fst(fU, rT, 0)
		b.Addi(rI, rI, 1)
		b.Jmp(pfx + "loop")
		b.Label(pfx + "done")
		b.Halt()
	}
	for tid := 0; tid < threads; tid++ {
		thread(tid)
	}
	return b.MustBuild()
}

// RefBlackscholes computes the kernel's result in the same op order.
func RefBlackscholes(n int) []float64 {
	out := make([]float64, 2*n)
	kRecip := float64(1) / 100 // hoisted reciprocal strike, as the kernel does
	for i := range out {
		s := 80 + float64(i%40)
		h := float64(2)
		t := float64(s * kRecip)
		u := t - h
		t = t + h
		t = sqrt64(t)
		u = u / t
		t = abs64(u)
		t = t + h
		u = u / t
		u = float64(u*s) + s
		out[i] = u
	}
	return out
}

// Swaptions runs paths Monte-Carlo trials per thread using the RAND
// instruction (a non-repeatable value that must replay from the log);
// each thread stores its accumulated sum.
func Swaptions(paths int) *isa.Program {
	b := asm.New("parsec.swaptions")
	out := b.Reserve(2 * 8)
	b.Sym("out", out)

	thread := func(tid int) {
		pfx := fmt.Sprintf("t%d_", tid)
		const (
			rI, rN, rT, rOut = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
			rAcc             = isa.Reg(9)
			fV, fAcc, fM     = isa.Reg(1), isa.Reg(2), isa.Reg(3)
		)
		b.Entry()
		b.Li(rI, 0)
		b.Li(rN, int64(paths))
		b.Li(rOut, int64(isa.DefaultDataBase+out)+int64(tid*8))
		b.Li(rAcc, 0)
		b.Fcvtif(fAcc, rAcc)
		b.Li(rT, 1<<20)
		b.Fcvtif(fM, rT)
		b.Label(pfx + "loop")
		b.Bge(rI, rN, pfx+"done")
		b.Rand(rT)
		b.Andi(rT, rT, 1<<20-1)
		b.Fcvtif(fV, rT)
		b.Fdiv(fV, fV, fM) // uniform [0,1)
		b.Fmul(fV, fV, fV) // payoff-ish
		b.Fadd(fAcc, fAcc, fV)
		b.Addi(rI, rI, 1)
		b.Jmp(pfx + "loop")
		b.Label(pfx + "done")
		b.Fst(fAcc, rOut, 0)
		b.Halt()
	}
	thread(0)
	thread(1)
	return b.MustBuild()
}

// Streamcluster assigns each of n points per thread to the nearest of k
// centres in 4-D, accumulating the cost per thread.
func Streamcluster(n, k int) *isa.Program {
	b := asm.New("parsec.streamcluster")
	const dims = 4
	pts := b.Reserve(2 * n * dims * 8)
	for i := 0; i < 2*n*dims; i++ {
		b.SetFloat64(pts+uint64(i*8), float64((i*37)%97)/9.7)
	}
	ctr := b.Reserve(k * dims * 8)
	for i := 0; i < k*dims; i++ {
		b.SetFloat64(ctr+uint64(i*8), float64((i*53)%89)/8.9)
	}
	out := b.Reserve(2 * 8)
	b.Sym("out", out)

	thread := func(tid int) {
		pfx := fmt.Sprintf("t%d_", tid)
		const (
			rPts, rCtr, rI, rN, rC, rK = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8), isa.Reg(9), isa.Reg(10)
			rT, rD, rOut               = isa.Reg(11), isa.Reg(12), isa.Reg(13)
			fBest, fSum, fA, fB, fCost = isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
			fSum2                      = isa.Reg(6)
		)
		b.Entry()
		b.Li(rPts, int64(isa.DefaultDataBase+pts)+int64(tid*n*dims*8))
		b.Li(rCtr, int64(isa.DefaultDataBase+ctr))
		b.Li(rOut, int64(isa.DefaultDataBase+out)+int64(tid*8))
		b.Li(rI, 0)
		b.Li(rN, int64(n))
		b.Li(rT, 0)
		b.Fcvtif(fCost, rT)
		b.Label(pfx + "pt")
		b.Bge(rI, rN, pfx+"done")
		b.Li(rC, 0)
		b.Li(rK, int64(k))
		b.Li(rT, 1<<30)
		b.Fcvtif(fBest, rT)
		b.Label(pfx + "ctr")
		b.Bge(rC, rK, pfx+"assign")
		// squared distance over dims
		b.Li(rD, 0)
		b.Fcvtif(fSum, rD)
		for d := 0; d < dims; d++ {
			b.Slli(rT, rI, 5) // i*32 (dims*8)
			b.Add(rT, rT, rPts)
			b.Fld(fA, rT, int64(d*8))
			b.Slli(rT, rC, 5)
			b.Add(rT, rT, rCtr)
			b.Fld(fB, rT, int64(d*8))
			b.Fsub(fA, fA, fB)
			b.Fmul(fA, fA, fA)
			b.Fadd(fSum, fSum, fA)
		}
		b.Fmin(fBest, fBest, fSum)
		b.Addi(rC, rC, 1)
		b.Jmp(pfx + "ctr")
		b.Label(pfx + "assign")
		b.Fadd(fCost, fCost, fBest)
		b.Addi(rI, rI, 1)
		b.Jmp(pfx + "pt")
		b.Label(pfx + "done")
		b.Fst(fCost, rOut, 0)
		b.Halt()
	}
	thread(0)
	thread(1)
	return b.MustBuild()
}

// Fluidanimate runs iters Jacobi-style sweeps over a rows x rows float64
// grid, threads splitting the rows, with a true two-thread barrier
// between iterations: each thread reads the other's boundary row, so the
// log must replay cross-thread communication exactly.
func Fluidanimate(rows, iters int) *isa.Program {
	b := asm.New("parsec.fluidanimate")
	cols := rows
	grid := b.Reserve(rows * cols * 8)
	for i := 0; i < rows*cols; i++ {
		b.SetFloat64(grid+uint64(i*8), float64(i%13))
	}
	lock := b.Word64(0)
	cnts := b.Reserve((iters + 1) * 8)

	thread := func(tid int) {
		pfx := fmt.Sprintf("t%d_", tid)
		half := rows / 2
		r0, r1 := 1, half // thread 0: rows [1, half)
		if tid == 1 {
			r0, r1 = half, rows-1
		}
		const (
			rGrid, rLock, rCnts, rPh  = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
			rIt, rK, rR, rC, rRE, rCE = isa.Reg(9), isa.Reg(10), isa.Reg(11), isa.Reg(12), isa.Reg(13), isa.Reg(14)
			rT, rT2, rA               = isa.Reg(15), isa.Reg(16), isa.Reg(17)
			fC, fN, fS, fQ, fW        = isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
		)
		b.Entry()
		b.Li(rGrid, int64(isa.DefaultDataBase+grid))
		b.Li(rLock, int64(isa.DefaultDataBase+lock))
		b.Li(rCnts, int64(isa.DefaultDataBase+cnts))
		b.Li(rPh, 0)
		b.Li(rIt, 0)
		b.Li(rK, int64(iters))
		// 1/4 as a constant multiplier (compilers strength-reduce the
		// stencil's divide).
		b.Li(rT, 1)
		b.Fcvtif(fQ, rT)
		b.Li(rT, 4)
		b.Fcvtif(fS, rT)
		b.Fdiv(fQ, fQ, fS)
		b.Label(pfx + "iter")
		b.Bge(rIt, rK, pfx+"done")
		b.Li(rR, int64(r0))
		b.Li(rRE, int64(r1))
		b.Label(pfx + "row")
		b.Bge(rR, rRE, pfx+"sync")
		b.Li(rC, 1)
		b.Li(rCE, int64(cols-1))
		b.Label(pfx + "col")
		b.Bge(rC, rCE, pfx+"rownext")
		// addr = grid + (r*cols + c)*8
		b.Li(rT, int64(cols))
		b.Mul(rA, rR, rT)
		b.Add(rA, rA, rC)
		b.Slli(rA, rA, 3)
		b.Add(rA, rA, rGrid)
		b.Fld(fC, rA, 0)
		b.Fld(fN, rA, int64(-cols*8))
		b.Fld(fS, rA, int64(cols*8))
		b.Fld(fW, rA, -8)
		b.Fadd(fN, fN, fS) // pairwise reduction: short dependency chains
		b.Fld(fS, rA, 8)
		b.Fadd(fW, fW, fS)
		b.Fadd(fN, fN, fW)
		b.Fmul(fN, fN, fQ)
		b.Fadd(fC, fC, fN)
		b.Fmul(fC, fC, fQ)
		b.Fst(fC, rA, 0)
		b.Addi(rC, rC, 1)
		b.Jmp(pfx + "col")
		b.Label(pfx + "rownext")
		b.Addi(rR, rR, 1)
		b.Jmp(pfx + "row")
		b.Label(pfx + "sync")
		emitBarrier(b, pfx+fmt.Sprintf("bar"), rLock, rCnts, rPh, rT, rT2)
		b.Addi(rPh, rPh, 8)
		b.Addi(rIt, rIt, 1)
		b.Jmp(pfx + "iter")
		b.Label(pfx + "done")
		b.Halt()
	}
	thread(0)
	thread(1)
	return b.MustBuild()
}

// Canneal performs swaps random pairwise element exchanges on a shared
// array using SWP atomics under a lock, the anneal-style workload whose
// races must replay from the log. The multiset of array values is
// invariant.
func Canneal(n, swaps int) *isa.Program {
	b := asm.New("parsec.canneal")
	arr := b.Reserve(n * 8)
	for i := 0; i < n; i++ {
		b.SetWord64(arr+uint64(i*8), uint64(i*7+1))
	}
	b.Sym("arr", arr)
	lock := b.Word64(0)

	thread := func(tid int) {
		pfx := fmt.Sprintf("t%d_", tid)
		const (
			rArr, rLock, rI, rN   = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
			rT, rA, rB, rVA, rMsk = isa.Reg(9), isa.Reg(10), isa.Reg(11), isa.Reg(12), isa.Reg(13)
			rLCG                  = isa.Reg(14)
		)
		b.Entry()
		b.Li(rArr, int64(isa.DefaultDataBase+arr))
		b.Li(rLock, int64(isa.DefaultDataBase+lock))
		b.Li(rI, 0)
		b.Li(rN, int64(swaps))
		b.Li(rMsk, int64(n-1)) // n must be a power of two
		b.Li(rLCG, int64(tid)*77+13)
		b.Label(pfx + "loop")
		b.Bge(rI, rN, pfx+"done")
		// pick two slots
		b.Srli(rT, rLCG, 13)
		b.Xor(rLCG, rLCG, rT)
		b.Slli(rT, rLCG, 7)
		b.Xor(rLCG, rLCG, rT)
		b.And(rA, rLCG, rMsk)
		b.Srli(rB, rLCG, 17)
		b.And(rB, rB, rMsk)
		b.Slli(rA, rA, 3)
		b.Add(rA, rA, rArr)
		b.Slli(rB, rB, 3)
		b.Add(rB, rB, rArr)
		emitLock(b, pfx+"lk", rLock, rT)
		// swap *a, *b with an atomic exchange chain
		b.Ld(8, rVA, rA, 0)
		b.Swp(rVA, rB, rVA) // old b -> rVA, a's value stored to b
		b.St(8, rVA, rA, 0)
		emitUnlock(b, rLock)
		b.Addi(rI, rI, 1)
		b.Jmp(pfx + "loop")
		b.Label(pfx + "done")
		b.Halt()
	}
	thread(0)
	thread(1)
	return b.MustBuild()
}

// Dedup is a two-stage pipeline: thread 0 produces chunk checksums into a
// ring buffer and sets ready flags; thread 1 spins on the flags, consumes
// and accumulates. The consumer's total must equal the producer's. Cross-
// thread flag spins are the hardest case for exact log replay.
func Dedup(chunks int) *isa.Program {
	b := asm.New("parsec.dedup")
	const ring = 64
	buf := b.Reserve(ring * 8)
	flags := b.Reserve(ring * 8)
	sums := b.Reserve(2 * 8)
	b.Sym("sums", sums)

	// Producer.
	{
		const (
			rBuf, rFlg, rI, rN  = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
			rT, rSlot, rV, rSum = isa.Reg(9), isa.Reg(10), isa.Reg(11), isa.Reg(12)
			rM                  = isa.Reg(13)
		)
		b.Entry()
		b.Li(rBuf, int64(isa.DefaultDataBase+buf))
		b.Li(rFlg, int64(isa.DefaultDataBase+flags))
		b.Li(rI, 0)
		b.Li(rN, int64(chunks))
		b.Li(rSum, 0)
		b.Li(rM, ring-1)
		b.Label("p_loop")
		b.Bge(rI, rN, "p_done")
		b.And(rSlot, rI, rM)
		b.Slli(rSlot, rSlot, 3)
		// wait until the slot is free (flag == 0)
		b.Jmp("p_check")
		b.Label("p_wait")
		b.Pause()
		b.Label("p_check")
		b.Add(rT, rFlg, rSlot)
		b.Ld(8, rT, rT, 0)
		b.Bne(rT, isa.Zero, "p_wait")
		// chunk "checksum"
		b.Mul(rV, rI, rI)
		b.Xori(rV, rV, 0x5A5)
		b.Add(rSum, rSum, rV)
		b.Add(rT, rBuf, rSlot)
		b.St(8, rV, rT, 0)
		b.Li(rT, 1)
		b.Add(rV, rFlg, rSlot)
		b.St(8, rT, rV, 0) // publish
		b.Addi(rI, rI, 1)
		b.Jmp("p_loop")
		b.Label("p_done")
		b.LiSym(rT, "sums")
		b.St(8, rSum, rT, 0)
		b.Halt()
	}

	// Consumer.
	{
		const (
			rBuf, rFlg, rI, rN  = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
			rT, rSlot, rV, rSum = isa.Reg(9), isa.Reg(10), isa.Reg(11), isa.Reg(12)
			rM                  = isa.Reg(13)
		)
		b.Entry()
		b.Li(rBuf, int64(isa.DefaultDataBase+buf))
		b.Li(rFlg, int64(isa.DefaultDataBase+flags))
		b.Li(rI, 0)
		b.Li(rN, int64(chunks))
		b.Li(rSum, 0)
		b.Li(rM, ring-1)
		b.Label("c_loop")
		b.Bge(rI, rN, "c_done")
		b.And(rSlot, rI, rM)
		b.Slli(rSlot, rSlot, 3)
		b.Jmp("c_check")
		b.Label("c_wait")
		b.Pause()
		b.Label("c_check")
		b.Add(rT, rFlg, rSlot)
		b.Ld(8, rT, rT, 0)
		b.Beq(rT, isa.Zero, "c_wait")
		b.Add(rT, rBuf, rSlot)
		b.Ld(8, rV, rT, 0)
		b.Add(rSum, rSum, rV)
		b.Add(rT, rFlg, rSlot)
		b.St(8, isa.Zero, rT, 0) // release slot
		b.Addi(rI, rI, 1)
		b.Jmp("c_loop")
		b.Label("c_done")
		b.LiSym(rT, "sums")
		b.St(8, rSum, rT, 8)
		b.Halt()
	}
	return b.MustBuild()
}

func sqrt64(x float64) float64 { return math.Sqrt(x) }
func abs64(x float64) float64  { return math.Abs(x) }
