// Package fuzz generates random-but-verifiable programs, checks the
// static verifier's proofs against a real run on the per-instruction
// emulator, and executes them differentially across each checker
// strategy of the full system model and SpecCache record/replay.
// Programs come out of a templated, seed-deterministic generator over
// the full opcode set; the abstract-interpretation verifier screens
// each candidate (no errors, a proved termination bound) before any
// engine runs it, so a divergence is always a verifier or engine bug,
// never an artefact of an ill-formed input.
package fuzz

import (
	"fmt"

	"paraverser/internal/isa"
)

// rng is a splitmix64 stream: the only randomness source in this
// package, so a seed fully determines a generated program.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Mix advances a seed to an independent successor stream, used to
// derive regeneration seeds when a candidate fails screening.
func Mix(seed uint64) uint64 {
	r := rng(seed)
	return r.next()
}

// Generator layout constants. The data segment is a page of 8-byte
// slots; every address is formed as GP plus a masked offset so the
// verifier's known-bits domain proves each access in bounds.
const (
	dataBytes  = 4096
	offMask    = 0xFF8 // 8-aligned offsets 0..4088
	loopStride = 8
)

// Scratch register conventions. GP holds the data base (machine-seeded
// and re-materialised after calls); the generator cycles through a
// small scratch file for values and two dedicated registers for loop
// control so gadgets compose without hidden dependencies.
var (
	scratch = []isa.Reg{10, 11, 12, 13, 14, 15, 16, 17}
	fpRegs  = []isa.Reg{8, 9, 10, 11, 12, 13}
	rAddr   = isa.Reg(18) // address staging
	rAddr2  = isa.Reg(19) // second address (GLD/SST)
	rCnt    = isa.Reg(20) // loop counter
	rLim    = isa.Reg(21) // loop limit
)

// gadget is one self-contained emission unit: its instructions use only
// gadget-internal relative branches, so any subset of gadgets
// concatenates into a valid program. call marks the JAL-placeholder
// index (relative to the gadget) that must be patched to the shared
// function body once the final layout is known, or -1.
type gadget struct {
	kind  string
	insts []isa.Inst
	call  int
}

// Template is a generated program in gadget form. Emit materialises any
// subset of the gadgets into a runnable program, which is what lets the
// minimiser shrink a failing seed without patching branch offsets.
type Template struct {
	Seed    uint64
	gadgets []gadget
	fn      []isa.Inst // shared callee body (JALR-terminated)
}

// NumGadgets returns how many droppable units the template has.
func (t *Template) NumGadgets() int { return len(t.gadgets) }

// Generate builds a deterministic program template of roughly
// targetInsts instructions from the seed. The same (seed, targetInsts)
// pair always yields the same template.
func Generate(seed uint64, targetInsts int) *Template {
	r := rng(seed)
	t := &Template{Seed: seed}
	t.fn = genCallee(&r)
	total := 0
	for total < targetInsts {
		g := genGadget(&r)
		t.gadgets = append(t.gadgets, g)
		total += len(g.insts)
	}
	return t
}

// Program emits the full template.
func (t *Template) Program() *isa.Program {
	mask := make([]bool, len(t.gadgets))
	for i := range mask {
		mask[i] = true
	}
	return t.Emit(mask)
}

// Emit assembles the enabled subset of gadgets into a program:
// preamble, gadget bodies, HALT, then the shared callee (only when a
// call gadget is enabled, so disabled calls leave no dead code).
func (t *Template) Emit(mask []bool) *isa.Program {
	var insts []isa.Inst
	insts = append(insts, preamble(t.Seed)...)
	type fixup struct{ at int }
	var fixups []fixup
	hasCall := false
	for i, g := range t.gadgets {
		if i < len(mask) && !mask[i] {
			continue
		}
		base := len(insts)
		insts = append(insts, g.insts...)
		if g.call >= 0 {
			fixups = append(fixups, fixup{at: base + g.call})
			hasCall = true
		}
	}
	insts = append(insts, isa.Inst{Op: isa.OpHALT})
	if hasCall {
		fnBase := len(insts)
		insts = append(insts, t.fn...)
		for _, f := range fixups {
			insts[f.at].Imm = int64(fnBase - f.at)
		}
	}
	return &isa.Program{
		Name:     fmt.Sprintf("fuzz-%016x", t.Seed),
		Insts:    insts,
		Data:     make([]byte, dataBytes),
		DataBase: isa.DefaultDataBase,
		Entries:  []uint64{0},
	}
}

// preamble materialises every scratch register with a seed-derived
// constant and warms the FP file from them, so gadgets always have
// defined operands regardless of which subset the minimiser kept.
func preamble(seed uint64) []isa.Inst {
	r := rng(seed ^ 0xA5A5A5A5)
	var out []isa.Inst
	for _, reg := range scratch {
		switch r.intn(3) {
		case 0:
			out = append(out, isa.Inst{Op: isa.OpADDI, Rd: reg, Rs1: isa.Zero, Imm: int64(r.intn(8192) - 4096)})
		case 1:
			out = append(out, isa.Inst{Op: isa.OpLUI, Rd: reg, Imm: int64(r.next() % (1 << 40))})
		default:
			out = append(out,
				isa.Inst{Op: isa.OpADDI, Rd: reg, Rs1: isa.Zero, Imm: int64(r.intn(1024))},
				isa.Inst{Op: isa.OpSLLI, Rd: reg, Rs1: reg, Imm: int64(r.intn(20))},
			)
		}
	}
	for i, freg := range fpRegs {
		out = append(out, isa.Inst{Op: isa.OpFCVTIF, Rd: freg, Rs1: scratch[i%len(scratch)]})
	}
	return out
}

// genCallee builds the shared function body: a few register-only ALU
// ops and a return. It deliberately avoids memory and GP so the
// caller-side re-materialisation is the only post-call repair needed.
func genCallee(r *rng) []isa.Inst {
	var out []isa.Inst
	n := 2 + r.intn(4)
	for i := 0; i < n; i++ {
		a, b := scratch[r.intn(len(scratch))], scratch[r.intn(len(scratch))]
		ops := []isa.Op{isa.OpADD, isa.OpXOR, isa.OpMUL, isa.OpSUB}
		out = append(out, isa.Inst{Op: ops[r.intn(len(ops))], Rd: a, Rs1: a, Rs2: b})
	}
	out = append(out, isa.Inst{Op: isa.OpJALR, Rd: isa.Zero, Rs1: isa.RA})
	return out
}

var aluRegOps = []isa.Op{
	isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpDIV, isa.OpREM,
	isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL, isa.OpSRA,
	isa.OpSLT, isa.OpSLTU,
}

var aluImmOps = []isa.Op{
	isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI,
	isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLTI,
}

var fpBinOps = []isa.Op{
	isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV, isa.OpFMIN, isa.OpFMAX,
}

var fpUnOps = []isa.Op{isa.OpFSQRT, isa.OpFNEG, isa.OpFABS}

var branchOps = []isa.Op{
	isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU,
}

var memSizes = []uint8{1, 2, 4, 8}

// genGadget picks and builds one gadget.
func genGadget(r *rng) gadget {
	switch r.intn(10) {
	case 0, 1:
		return gadget{kind: "alu", insts: genALU(r), call: -1}
	case 2, 3:
		return gadget{kind: "mem", insts: genMem(r), call: -1}
	case 4:
		return gadget{kind: "loop", insts: genLoop(r), call: -1}
	case 5:
		return gadget{kind: "diamond", insts: genDiamond(r), call: -1}
	case 6:
		return gadget{kind: "fp", insts: genFP(r), call: -1}
	case 7:
		return gadget{kind: "gather", insts: genGather(r), call: -1}
	case 8:
		return gadget{kind: "sys", insts: genSys(r), call: -1}
	default:
		g := genCall(r)
		return g
	}
}

// genALU emits a burst of register and immediate ALU operations over
// the scratch file, including divides (division by zero is defined
// architecture-wide, so no guard is needed for execution — only the
// occasional ORI keeps quotients interesting).
func genALU(r *rng) []isa.Inst {
	var out []isa.Inst
	n := 3 + r.intn(6)
	for i := 0; i < n; i++ {
		d := scratch[r.intn(len(scratch))]
		a := scratch[r.intn(len(scratch))]
		b := scratch[r.intn(len(scratch))]
		if r.intn(2) == 0 {
			op := aluRegOps[r.intn(len(aluRegOps))]
			if (op == isa.OpDIV || op == isa.OpREM) && r.intn(2) == 0 {
				out = append(out, isa.Inst{Op: isa.OpORI, Rd: b, Rs1: b, Imm: 1})
			}
			out = append(out, isa.Inst{Op: op, Rd: d, Rs1: a, Rs2: b})
		} else {
			op := aluImmOps[r.intn(len(aluImmOps))]
			imm := int64(r.intn(8192) - 4096)
			if op == isa.OpSLLI || op == isa.OpSRLI || op == isa.OpSRAI {
				imm = int64(r.intn(64))
			}
			out = append(out, isa.Inst{Op: op, Rd: d, Rs1: a, Imm: imm})
		}
	}
	return out
}

// maskedAddr stages a provably in-bounds data address in dst: the
// known-bits domain sees the AND as [0, offMask] with 8-byte alignment
// and the ADD as GP-relative, so the bounds pass proves the access.
func maskedAddr(r *rng, dst isa.Reg) []isa.Inst {
	src := scratch[r.intn(len(scratch))]
	return []isa.Inst{
		{Op: isa.OpANDI, Rd: dst, Rs1: src, Imm: offMask},
		{Op: isa.OpADD, Rd: dst, Rs1: isa.GP, Rs2: dst},
	}
}

// genMem emits masked loads, stores, swaps and FP memory traffic.
func genMem(r *rng) []isa.Inst {
	var out []isa.Inst
	n := 1 + r.intn(3)
	for i := 0; i < n; i++ {
		out = append(out, maskedAddr(r, rAddr)...)
		val := scratch[r.intn(len(scratch))]
		dst := scratch[r.intn(len(scratch))]
		size := memSizes[r.intn(len(memSizes))]
		switch r.intn(6) {
		case 0, 1:
			out = append(out, isa.Inst{Op: isa.OpLD, Rd: dst, Rs1: rAddr, Size: size})
		case 2, 3:
			out = append(out, isa.Inst{Op: isa.OpST, Rs1: rAddr, Rs2: val, Size: size})
		case 4:
			out = append(out, isa.Inst{Op: isa.OpSWP, Rd: dst, Rs1: rAddr, Rs2: val, Size: 8})
		default:
			f := fpRegs[r.intn(len(fpRegs))]
			if r.intn(2) == 0 {
				out = append(out, isa.Inst{Op: isa.OpFLD, Rd: f, Rs1: rAddr, Size: 8})
			} else {
				out = append(out, isa.Inst{Op: isa.OpFST, Rs1: rAddr, Rs2: f, Size: 8})
			}
		}
	}
	return out
}

// genGather emits the two-address ops: gather-load and scatter-store.
func genGather(r *rng) []isa.Inst {
	out := maskedAddr(r, rAddr)
	out = append(out, maskedAddr(r, rAddr2)...)
	size := memSizes[r.intn(len(memSizes))]
	if r.intn(2) == 0 {
		out = append(out, isa.Inst{Op: isa.OpGLD, Rd: scratch[r.intn(len(scratch))],
			Rs1: rAddr, Rs2: rAddr2, Size: size})
	} else {
		out = append(out, isa.Inst{Op: isa.OpSST, Rd: scratch[r.intn(len(scratch))],
			Rs1: rAddr, Rs2: rAddr2, Size: size})
	}
	return out
}

// genLoop emits a counted induction loop whose body indexes the data
// segment by the counter — the exact shape the termination and bounds
// analyses must prove (counter interval via branch refinement, address
// via shift/add on the refined interval).
func genLoop(r *rng) []isa.Inst {
	iters := 4 + r.intn(29) // 4..32
	var out []isa.Inst
	out = append(out,
		isa.Inst{Op: isa.OpADDI, Rd: rCnt, Rs1: isa.Zero, Imm: 0},
		isa.Inst{Op: isa.OpADDI, Rd: rLim, Rs1: isa.Zero, Imm: int64(iters)},
	)
	head := len(out)
	// Body: counter-indexed access plus optional ALU noise.
	out = append(out,
		isa.Inst{Op: isa.OpSLLI, Rd: rAddr, Rs1: rCnt, Imm: 3},
		isa.Inst{Op: isa.OpADD, Rd: rAddr, Rs1: isa.GP, Rs2: rAddr},
	)
	if r.intn(2) == 0 {
		out = append(out, isa.Inst{Op: isa.OpST, Rs1: rAddr, Rs2: rCnt, Size: 8})
	} else {
		out = append(out, isa.Inst{Op: isa.OpLD, Rd: scratch[r.intn(len(scratch))], Rs1: rAddr, Size: 8})
	}
	for i := r.intn(3); i > 0; i-- {
		d, a := scratch[r.intn(len(scratch))], scratch[r.intn(len(scratch))]
		out = append(out, isa.Inst{Op: aluRegOps[r.intn(len(aluRegOps))], Rd: d, Rs1: a, Rs2: rCnt})
	}
	out = append(out, isa.Inst{Op: isa.OpADDI, Rd: rCnt, Rs1: rCnt, Imm: 1})
	out = append(out, isa.Inst{Op: isa.OpBLT, Rs1: rCnt, Rs2: rLim,
		Imm: int64(head - len(out))})
	return out
}

// genDiamond emits a two-arm branch diamond over scratch values.
func genDiamond(r *rng) []isa.Inst {
	op := branchOps[r.intn(len(branchOps))]
	a, b := scratch[r.intn(len(scratch))], scratch[r.intn(len(scratch))]
	arm0, arm1 := genALU(r), genALU(r)
	var out []isa.Inst
	// branch a,b -> arm1; arm0; jal over arm1.
	out = append(out, isa.Inst{Op: op, Rs1: a, Rs2: b, Imm: int64(len(arm0) + 2)})
	out = append(out, arm0...)
	out = append(out, isa.Inst{Op: isa.OpJAL, Rd: isa.Zero, Imm: int64(len(arm1) + 1)})
	out = append(out, arm1...)
	return out
}

// genFP emits an FP burst with int crossings (converts, moves,
// compares) so the checker-side FP state is exercised end to end.
func genFP(r *rng) []isa.Inst {
	var out []isa.Inst
	n := 2 + r.intn(5)
	for i := 0; i < n; i++ {
		d := fpRegs[r.intn(len(fpRegs))]
		a := fpRegs[r.intn(len(fpRegs))]
		b := fpRegs[r.intn(len(fpRegs))]
		switch r.intn(6) {
		case 0, 1, 2:
			out = append(out, isa.Inst{Op: fpBinOps[r.intn(len(fpBinOps))], Rd: d, Rs1: a, Rs2: b})
		case 3:
			out = append(out, isa.Inst{Op: fpUnOps[r.intn(len(fpUnOps))], Rd: d, Rs1: a})
		case 4:
			x := scratch[r.intn(len(scratch))]
			if r.intn(2) == 0 {
				out = append(out, isa.Inst{Op: isa.OpFCVTIF, Rd: d, Rs1: x})
			} else {
				out = append(out, isa.Inst{Op: isa.OpFMVIF, Rd: d, Rs1: x})
			}
		default:
			x := scratch[r.intn(len(scratch))]
			ops := []isa.Op{isa.OpFCVTFI, isa.OpFMVFI, isa.OpFEQ, isa.OpFLT}
			out = append(out, isa.Inst{Op: ops[r.intn(len(ops))], Rd: x, Rs1: a, Rs2: b})
		}
	}
	return out
}

// genSys emits the system-ish opcodes: RAND, CYCLE, NOP, PAUSE. RAND
// and CYCLE are deterministic per hart (seeded stream, scaled instret)
// so they are safe under differential execution.
func genSys(r *rng) []isa.Inst {
	var out []isa.Inst
	n := 1 + r.intn(3)
	for i := 0; i < n; i++ {
		d := scratch[r.intn(len(scratch))]
		switch r.intn(4) {
		case 0:
			out = append(out, isa.Inst{Op: isa.OpRAND, Rd: d})
		case 1:
			out = append(out, isa.Inst{Op: isa.OpCYCLE, Rd: d})
		case 2:
			out = append(out, isa.Inst{Op: isa.OpNOP})
		default:
			out = append(out, isa.Inst{Op: isa.OpPAUSE})
		}
	}
	return out
}

// genCall emits a linking JAL to the shared callee (patched at Emit
// time) followed by full re-materialisation: the verifier treats a
// returning call as clobbering every register, so GP and the scratch
// file are rebuilt to keep later bounds proofs alive.
func genCall(r *rng) gadget {
	var out []isa.Inst
	callAt := len(out)
	out = append(out, isa.Inst{Op: isa.OpJAL, Rd: isa.RA, Imm: 0}) // patched
	out = append(out, isa.Inst{Op: isa.OpLUI, Rd: isa.GP, Imm: int64(isa.DefaultDataBase)})
	for _, reg := range scratch {
		out = append(out, isa.Inst{Op: isa.OpADDI, Rd: reg, Rs1: isa.Zero, Imm: int64(r.intn(4096))})
	}
	return gadget{kind: "call", insts: out, call: callAt}
}
