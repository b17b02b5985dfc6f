package emu

import (
	"math/rand"
	"reflect"
	"testing"

	"paraverser/internal/isa"
)

// The tests in this file pin Machine.RunBlocks, the batched entry point
// the benchmark harness still calls, to per-instruction stepping: same
// effects, same state, same memory image, same error placement, and no
// more instructions than the fuel allows.

// canonEffect zeroes the fields whose meaning is guarded by another
// field (Mem entries beyond NMem may hold stale bytes from an earlier
// batch, matching the effIter replay convention) so the two execution
// paths can be compared for bit-identity on everything consumers read.
func canonEffect(e *Effect) {
	for i := e.NMem; i < MaxMemOps; i++ {
		e.Mem[i] = MemOp{}
	}
}

// randProgram generates a seeded random branchy program: dense ALU/FP
// traffic on x1-x15 / f1-f7, loads and stores both inside the data
// segment and at register-derived sparse addresses (including unaligned
// and page-straddling ones), conditional branches and JALs to uniform
// targets, an indirect JALR through a pinned register, RAND/CYCLE
// reads, and scattered HALTs. Every program passes Validate.
func randProgram(seed int64, n int) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	const dataBytes = 1 << 14
	insts := make([]isa.Inst, 0, n+4)
	// Prologue: x20 = data base, x21 = a valid code index for JALR.
	insts = append(insts,
		isa.Inst{Op: isa.OpLUI, Rd: 20, Imm: int64(isa.DefaultDataBase)},
		isa.Inst{Op: isa.OpLUI, Rd: 21, Imm: int64(n / 2)},
		isa.Inst{Op: isa.OpLUI, Rd: 22, Imm: 0x7FFF},
	)
	reg := func() isa.Reg { return isa.Reg(1 + rng.Intn(15)) }
	for len(insts) < n {
		pc := len(insts)
		var in isa.Inst
		switch r := rng.Intn(100); {
		case r < 40: // integer ALU
			ops := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpXOR, isa.OpAND, isa.OpOR,
				isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLT, isa.OpSLTU,
				isa.OpMUL, isa.OpDIV, isa.OpREM,
				isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSLTI, isa.OpLUI}
			in = isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Rs2: reg(),
				Imm: int64(rng.Intn(1 << 12))}
		case r < 50: // FP
			ops := []isa.Op{isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFMIN, isa.OpFMAX,
				isa.OpFNEG, isa.OpFABS, isa.OpFCVTIF, isa.OpFCVTFI, isa.OpFMVIF,
				isa.OpFMVFI, isa.OpFEQ, isa.OpFLT}
			in = isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: isa.Reg(1 + rng.Intn(7)),
				Rs1: isa.Reg(1 + rng.Intn(7)), Rs2: isa.Reg(1 + rng.Intn(7))}
		case r < 70: // memory: mostly in-segment, sometimes register-wild
			sizes := []uint8{1, 2, 4, 8}
			size := sizes[rng.Intn(len(sizes))]
			base := isa.Reg(20)
			imm := int64(rng.Intn(dataBytes - 8))
			if rng.Intn(8) == 0 { // sparse/unaligned/straddling stress
				base = reg()
				imm = int64(rng.Intn(1 << 13))
			}
			switch rng.Intn(7) {
			case 0, 1, 2:
				in = isa.Inst{Op: isa.OpLD, Rd: reg(), Rs1: base, Size: size, Imm: imm}
			case 3, 4:
				in = isa.Inst{Op: isa.OpST, Rs1: base, Rs2: reg(), Size: size, Imm: imm}
			case 5:
				if rng.Intn(2) == 0 {
					in = isa.Inst{Op: isa.OpFLD, Rd: isa.Reg(1 + rng.Intn(7)), Rs1: base, Size: 8, Imm: imm}
				} else {
					in = isa.Inst{Op: isa.OpFST, Rs1: base, Rs2: isa.Reg(1 + rng.Intn(7)), Size: 8, Imm: imm}
				}
			default:
				switch rng.Intn(3) {
				case 0:
					in = isa.Inst{Op: isa.OpGLD, Rd: reg(), Rs1: base, Rs2: isa.Reg(20), Size: size, Imm: imm}
				case 1:
					in = isa.Inst{Op: isa.OpSST, Rd: reg(), Rs1: base, Rs2: isa.Reg(20), Size: size, Imm: imm}
				default:
					in = isa.Inst{Op: isa.OpSWP, Rd: reg(), Rs1: isa.Reg(20), Rs2: reg(), Size: 8}
				}
			}
		case r < 90: // control flow
			tgt := rng.Intn(n)
			ops := []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU}
			switch rng.Intn(8) {
			case 6:
				in = isa.Inst{Op: isa.OpJAL, Rd: isa.Reg(rng.Intn(2)), Imm: int64(tgt - pc)}
			case 7:
				in = isa.Inst{Op: isa.OpJALR, Rd: 0, Rs1: 21}
			default:
				in = isa.Inst{Op: ops[rng.Intn(len(ops))], Rs1: reg(), Rs2: reg(), Imm: int64(tgt - pc)}
			}
		case r < 96:
			if rng.Intn(2) == 0 {
				in = isa.Inst{Op: isa.OpRAND, Rd: reg()}
			} else {
				in = isa.Inst{Op: isa.OpCYCLE, Rd: reg()}
			}
		case r < 98:
			in = isa.Inst{Op: isa.OpNOP}
		default:
			in = isa.Inst{Op: isa.OpHALT}
		}
		insts = append(insts, in)
	}
	insts = append(insts, isa.Inst{Op: isa.OpHALT})
	data := make([]byte, dataBytes)
	rng.Read(data)
	return &isa.Program{
		Name:     "rand-branchy",
		Insts:    insts,
		Data:     isa.NewSegment(data),
		DataBase: isa.DefaultDataBase,
		Entries:  []uint64{0},
	}
}

// runBlocksDifferential locks the two execution paths together over one
// program: machine B executes through RunBlocks in randomly sized
// batches, machine A steps the same instruction counts one at a time,
// and after every batch the architectural state, instret, halt flags,
// effects and full memory image must be bit-identical. A batch may not
// exceed its fuel and ends early only at a HALT or an error; errors must
// occur at the same instruction with the same message.
func runBlocksDifferential(t *testing.T, prog *isa.Program, seed uint64, limit int, chunkSeed int64) {
	t.Helper()
	ma, err := NewMachine(prog, seed)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMachine(prog, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(chunkSeed))
	batch := make([]Effect, 128)
	var eff Effect
	executed := 0
	for executed < limit && !mb.Harts[0].Halted {
		fuel := 1 + rng.Intn(len(batch))
		if rem := limit - executed; fuel > rem {
			fuel = rem
		}
		n, berr := mb.RunBlocks(0, batch, fuel)
		if n > fuel || (n < fuel && berr == nil && !mb.Harts[0].Halted) {
			t.Fatalf("inst %d: batch ran %d of fuel %d with no halt or error", executed, n, fuel)
		}
		for i := 0; i < n; i++ {
			if serr := ma.StepHart(0, &eff); serr != nil {
				t.Fatalf("inst %d: step path errored (%v) where RunBlocks did not", executed+i, serr)
			}
			canonEffect(&eff)
			canonEffect(&batch[i])
			if !reflect.DeepEqual(eff, batch[i]) {
				t.Fatalf("inst %d: effect mismatch\nstep:  %+v\nbatch: %+v", executed+i, eff, batch[i])
			}
		}
		executed += n
		if berr != nil {
			serr := ma.StepHart(0, &eff)
			if serr == nil {
				t.Fatalf("inst %d: RunBlocks errored (%v) where step path did not", executed, berr)
			}
			if serr.Error() != berr.Error() {
				t.Fatalf("inst %d: error mismatch\nstep:  %v\nbatch: %v", executed, serr, berr)
			}
			break
		}
		ha, hb := ma.Harts[0], mb.Harts[0]
		if ha.State != hb.State || ha.Instret != hb.Instret || ha.Halted != hb.Halted {
			t.Fatalf("inst %d: state mismatch\nstep:  pc=%d instret=%d halted=%v\nbatch: pc=%d instret=%d halted=%v",
				executed, ha.State.PC, ha.Instret, ha.Halted, hb.State.PC, hb.Instret, hb.Halted)
		}
		if ha.State.X != hb.State.X || ha.State.F != hb.State.F {
			t.Fatalf("inst %d: register file mismatch", executed)
		}
	}
	memEqual(t, ma.Mem, mb.Mem)
}

// residentPages copies every resident page of m, keyed by base address.
func residentPages(m *Memory) map[uint64]page {
	out := make(map[uint64]page, m.PagesMapped())
	for i := range m.seg {
		base := (m.basePN + uint64(i)) << pageBits
		out[base] = *m.lookup(base)
	}
	for pn, p := range m.pages {
		out[pn<<pageBits] = *p
	}
	return out
}

// memEqual asserts a and b have the same resident pages with the same
// bytes.
func memEqual(t *testing.T, a, b *Memory) {
	t.Helper()
	pagesA, pagesB := residentPages(a), residentPages(b)
	for base, want := range pagesA {
		got, ok := pagesB[base]
		if !ok {
			t.Errorf("page %#x is mapped in the first memory only", base)
		} else if got != want {
			t.Errorf("page %#x contents differ", base)
		}
	}
	if len(pagesA) != len(pagesB) {
		t.Errorf("page counts differ: %d vs %d", len(pagesA), len(pagesB))
	}
}

// TestRunBlocksEquivalenceRandom: seeded random branchy programs
// executed through RunBlocks must match per-instruction stepping bit
// for bit — state, effects, memory image, and error placement.
func TestRunBlocksEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		prog := randProgram(seed, 400)
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runBlocksDifferential(t, prog, uint64(seed), 20000, seed*7+1)
	}
}

// TestRunBlocksEquivalenceBenchLoop pins the differential on the
// page-local mixed loop the micro-benchmarks run.
func TestRunBlocksEquivalenceBenchLoop(t *testing.T) {
	b := benchLoopMachine(t)
	runBlocksDifferential(t, b.Prog, 1, 30000, 99)
}

// TestRunBlocksAfterHalt: a batch stops at the HALT, and calling
// RunBlocks on a halted hart fails exactly like StepDecoded.
func TestRunBlocksAfterHalt(t *testing.T) {
	prog := &isa.Program{Name: "halt", Insts: []isa.Inst{{Op: isa.OpHALT}}, Entries: []uint64{0}}
	m, err := NewMachine(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Effect, 8)
	n, err := m.RunBlocks(0, batch, 8)
	if err != nil || n != 1 || !batch[0].Halted {
		t.Fatalf("first run: n=%d err=%v halted=%v", n, err, batch[0].Halted)
	}
	if _, err := m.RunBlocks(0, batch, 8); err == nil {
		t.Fatal("run after halt succeeded")
	}
}

// TestRunBlocksZeroAlloc pins RunBlocks at zero heap allocations per
// batch in steady state.
func TestRunBlocksZeroAlloc(t *testing.T) {
	m := benchLoopMachine(t)
	batch := make([]Effect, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := m.RunBlocks(0, batch, len(batch)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RunBlocks allocates %.1f objects/op, want 0", allocs)
	}
}
