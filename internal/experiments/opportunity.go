package experiments

import (
	"fmt"

	"paraverser/internal/asm"
	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/isa"
	"paraverser/internal/stats"
)

// mapWorkload builds a dynamically load-balanced data-parallel map over
// items array elements, split across harts by work-stealing chunks from a
// shared lock-protected counter — so heterogeneous cores self-balance
// exactly as the paper's RK3588 measurements did. memBound selects a
// scattered, cache-hostile access pattern (GAP-like) versus a
// compute-heavy FP body (PARSEC-like).
func mapWorkload(harts, items int, memBound bool) *isa.Program {
	b := asm.New(fmt.Sprintf("map%dh", harts))
	arr := b.Reserve(items * 8)
	for i := 0; i < items; i++ {
		b.SetWord64(arr+uint64(i*8), uint64((i*2654435761)%items)&^7)
	}
	ctr := b.Word64(0)
	lock := b.Word64(0)
	outs := b.Reserve(harts * 8)
	const chunk = 64

	for tid := 0; tid < harts; tid++ {
		pfx := fmt.Sprintf("t%d_", tid)
		const (
			rArr, rCtr, rLock, rOut = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
			rIdx, rEnd, rN, rT      = isa.Reg(9), isa.Reg(10), isa.Reg(11), isa.Reg(12)
			rV, rSum, rA            = isa.Reg(13), isa.Reg(14), isa.Reg(15)
			fV, fS                  = isa.Reg(1), isa.Reg(2)
		)
		b.Entry()
		b.Li(rArr, int64(isa.DefaultDataBase+arr))
		b.Li(rCtr, int64(isa.DefaultDataBase+ctr))
		b.Li(rLock, int64(isa.DefaultDataBase+lock))
		b.Li(rOut, int64(isa.DefaultDataBase+outs)+int64(tid*8))
		b.Li(rN, int64(items))
		b.Li(rSum, 0)
		b.Label(pfx + "grab")
		// fetch-and-add under a spinlock
		b.Jmp(pfx + "try")
		b.Label(pfx + "acq")
		b.Pause()
		b.Label(pfx + "try")
		b.Li(rT, 1)
		b.Swp(rT, rLock, rT)
		b.Bne(rT, isa.Zero, pfx+"acq")
		b.Ld(8, rIdx, rCtr, 0)
		b.Addi(rT, rIdx, chunk)
		b.St(8, rT, rCtr, 0)
		b.St(8, isa.Zero, rLock, 0)
		b.Bge(rIdx, rN, pfx+"done")
		b.Addi(rEnd, rIdx, chunk)
		b.Blt(rEnd, rN, pfx+"body")
		b.Mov(rEnd, rN)
		b.Label(pfx + "body")
		b.Bge(rIdx, rEnd, pfx+"grab")
		if memBound {
			// chase the stored permutation: dependent scattered loads
			b.Slli(rT, rIdx, 3)
			b.Add(rT, rT, rArr)
			b.Ld(8, rV, rT, 0)
			b.Add(rA, rV, rArr)
			b.Ld(8, rV, rA, 0)
			b.Add(rSum, rSum, rV)
		} else {
			b.Slli(rT, rIdx, 3)
			b.Add(rT, rT, rArr)
			b.Ld(8, rV, rT, 0)
			b.Fcvtif(fV, rV)
			for k := 0; k < 6; k++ {
				b.Fmul(fS, fV, fV)
				b.Fadd(fV, fS, fV)
				b.Fsqrt(fV, fV)
			}
			b.Fcvtfi(rV, fV)
			b.Add(rSum, rSum, rV)
		}
		b.Addi(rIdx, rIdx, 1)
		b.Jmp(pfx + "body")
		b.Label(pfx + "done")
		b.St(8, rSum, rOut, 0)
		b.Halt()
	}
	return b.MustBuild()
}

// OpportunityRow is one line of the section VII-F comparison.
type OpportunityRow struct {
	Label string
	Value float64
	Unit  string
}

// OpportunityResult is the compute-opportunity-cost study.
type OpportunityResult struct {
	Rows  []OpportunityRow
	Notes []string
}

// Table renders the study.
func (o *OpportunityResult) Table() string {
	t := stats.NewTable("scenario", "value", "unit")
	for _, row := range o.Rows {
		t.Row(row.Label, fmt.Sprintf("%.2f", row.Value), row.Unit)
	}
	out := "Section VII-F: compute opportunity cost of checking\n" + t.String()
	for _, n := range o.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Opportunity reproduces section VII-F: the speedup little (or big) cores
// would deliver as extra parallel compute, versus the overhead they cost
// when devoted to full-coverage checking, for a GAP-like memory-bound
// workload and a PARSEC-like compute workload.
func Opportunity(sc Scale) (*OpportunityResult, error) {
	return opportunity(defaultEngine(), sc)
}

func opportunity(e *Engine, sc Scale) (*OpportunityResult, error) {
	flavours := []struct {
		name     string
		memBound bool
		littles  int
		items    int
	}{
		// The GAP-like flavour needs a working set well beyond the L2 so
		// the chase is genuinely memory-bound (1MiB of pointers).
		{"GAP-like", true, 2, 1 << 17},
		{"PARSEC-like", false, 3, int(sc.Insts / 40)},
	}
	// Per flavour, the four runs of runNames, all submitted before the
	// first wait.
	runNames := [...]string{
		"T1 (one X2 alone)",
		"X2 + little cores as compute",
		"two X2s as compute",
		"X2 with the little cores as checkers",
	}
	futs := make([][len(runNames)]*Future, len(flavours))
	for i, fl := range flavours {
		// Each harts-count maps to one program, built once: T1 and the
		// checking run share the single-hart program (and so share a cache
		// key up to config), while the parallel-compute runs get theirs.
		prog1 := mapWorkload(1, fl.items, fl.memBound)
		lanes := []core.LaneMain{{CPU: cpu.X2(), FreqGHz: 3.0}}
		for j := 0; j < fl.littles; j++ {
			lanes = append(lanes, core.LaneMain{CPU: cpu.A510(), FreqGHz: 2.0})
		}
		futs[i] = [...]*Future{
			submitMap(e, nil, prog1, nil),
			submitMap(e, lanes, mapWorkload(1+fl.littles, fl.items, fl.memBound), nil),
			submitMap(e, []core.LaneMain{
				{CPU: cpu.X2(), FreqGHz: 3.0}, {CPU: cpu.X2(), FreqGHz: 3.0},
			}, mapWorkload(2, fl.items, fl.memBound), nil),
			submitMap(e, nil, prog1, []core.CheckerSpec{a510Spec(fl.littles, 2.0)}),
		}
	}

	out := &OpportunityResult{}
	for i, fl := range flavours {
		var t [len(runNames)]float64
		for j, f := range futs[i] {
			res, err := clean(f, "opportunity %s, %s", fl.name, runNames[j])
			if err != nil {
				return nil, err
			}
			t[j] = res.TimeNS()
		}
		t1, tHet, tHomog, tCheck := t[0], t[1], t[2], t[3]
		out.Rows = append(out.Rows,
			OpportunityRow{fl.name + ": speedup, 1 X2 + little cores as compute", t1 / tHet, "x"},
			OpportunityRow{fl.name + ": speedup, 2 X2 as compute", t1 / tHomog, "x"},
			OpportunityRow{fl.name + ": overhead, little cores as checkers", (tCheck/t1 - 1) * 100, "%"},
		)
	}
	out.Notes = append(out.Notes,
		"paper: GAP 1.52x speedup (1 big + 2 little) vs 10% checking overhead; PARSEC 1.44x vs 7.6%",
		"paper: homogeneous 2-big speedups 1.9x (GAP) and 1.8x (PARSEC)")
	return out, nil
}

// submitMap schedules a map workload over the engine's pool.
func submitMap(e *Engine, lanes []core.LaneMain, prog *isa.Program, checkers []core.CheckerSpec) *Future {
	cfg := core.DefaultConfig(checkers...)
	cfg.LaneMains = lanes
	return e.Submit(cfg, []core.Workload{{Name: prog.Name, Prog: prog}})
}
