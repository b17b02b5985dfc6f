// Command lsldump is a debugging tool for the load-store-log machinery:
// it runs a workload on the functional emulator, splits it into
// checkpointed segments exactly as a main core would, verifies each
// segment through the checker path, and prints the segment structure —
// entries, kinds, wire sizes, checkpoint reasons — optionally with a
// disassembly of the hottest code.
//
// Usage:
//
//	lsldump [-insts N] [-segs N] [-hash] [-disasm N] <workload>
//
// where workload is a SPEC benchmark name (e.g. bwaves), gap.<kernel>
// (e.g. gap.bfs) or parsec.<kernel> (e.g. parsec.dedup).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"paraverser"
	"paraverser/internal/core"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/isa/verify"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("lsldump", flag.ContinueOnError)
	insts := fs.Int64("insts", 50_000, "instructions to execute")
	segs := fs.Int("segs", 8, "segments to print in detail")
	hash := fs.Bool("hash", false, "use Hash Mode entry sizing")
	disasm := fs.Int("disasm", 0, "disassemble the N hottest instructions")
	timeout := fs.Uint64("timeout", 5000, "checkpoint instruction timeout")
	capacity := fs.Int("capacity", 512, "LSL$ capacity in lines")
	doVerify := fs.Bool("verify", false, "statically verify the workload program and exit")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lsldump [flags] <workload>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	// Malformed flag values are usage errors, not truncated runs.
	switch {
	case *insts <= 0:
		fmt.Fprintf(os.Stderr, "lsldump: -insts must be positive, got %d\n", *insts)
		return 2
	case *segs < 0:
		fmt.Fprintf(os.Stderr, "lsldump: -segs must be non-negative, got %d\n", *segs)
		return 2
	case *disasm < 0:
		fmt.Fprintf(os.Stderr, "lsldump: -disasm must be non-negative, got %d\n", *disasm)
		return 2
	case *timeout == 0:
		fmt.Fprintln(os.Stderr, "lsldump: -timeout must be positive")
		return 2
	case *capacity <= 0:
		fmt.Fprintf(os.Stderr, "lsldump: -capacity must be positive, got %d\n", *capacity)
		return 2
	}
	if *doVerify {
		return runVerify(fs.Arg(0), *insts)
	}
	if err := dump(fs.Arg(0), *insts, *segs, *hash, *disasm, *timeout, *capacity); err != nil {
		fmt.Fprintf(os.Stderr, "lsldump: %v\n", err)
		return 1
	}
	return 0
}

// runVerify resolves the workload and runs the static program verifier,
// printing every finding plus the abstract interpretation's proved
// facts: the per-hart termination bound and the address interval,
// alignment and bounds status of every reachable memory access. Exit
// status 1 when any error-severity finding exists.
func runVerify(name string, insts int64) int {
	w, err := resolve(name, insts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsldump: %v\n", err)
		return 1
	}
	rep := verify.Verify(w.Prog)
	fmt.Printf("verify %s: %d insts, %d entry point(s), %d non-repeatable instruction(s)\n",
		w.Prog.Name, len(w.Prog.Insts), len(w.Prog.Entries), len(rep.NonRepeat))
	if rep.MaxInsts > 0 {
		fmt.Printf("termination: proved bound %d retired insts/hart\n", rep.MaxInsts)
	} else {
		fmt.Printf("termination: no proved bound\n")
	}
	for _, f := range rep.Findings {
		fmt.Printf("  %s\n", f)
	}
	if len(rep.MemFacts) > 0 {
		proved := 0
		for _, mf := range rep.MemFacts {
			if mf.Proved {
				proved++
			}
		}
		fmt.Printf("memory facts: %d access operand(s), %d proved in-bounds\n", len(rep.MemFacts), proved)
		for _, mf := range rep.MemFacts {
			status := "unproved"
			switch {
			case mf.Violation:
				status = "VIOLATION"
			case mf.Proved:
				status = "in-bounds"
			}
			fmt.Printf("  pc %-5d %-9s %-26s size %d align %-4d %-9s %s\n",
				mf.PC, mf.What, mf.Addr, mf.Size, mf.Align, status, disassemble(w.Prog, uint64(mf.PC)))
		}
	}
	if len(rep.Errors()) > 0 {
		fmt.Fprintf(os.Stderr, "lsldump: verify %s: %d violation(s)\n", w.Prog.Name, len(rep.Errors()))
		return 1
	}
	fmt.Printf("verify %s: clean\n", w.Prog.Name)
	return 0
}

func resolve(name string, insts int64) (paraverser.Workload, error) {
	switch {
	case strings.HasPrefix(name, "gap."):
		return paraverser.GAPWorkload(strings.TrimPrefix(name, "gap."), 9, 8, insts)
	case strings.HasPrefix(name, "parsec."):
		return paraverser.ParsecWorkload(strings.TrimPrefix(name, "parsec."), 500, insts)
	default:
		return paraverser.SPECWorkload(name, insts)
	}
}

func dump(name string, insts int64, maxSegs int, hash bool, disasm int, timeout uint64, capacity int) error {
	w, err := resolve(name, insts)
	if err != nil {
		return err
	}
	mach, err := emu.NewMachine(w.Prog, 1)
	if err != nil {
		return err
	}

	var (
		counter  core.Counter
		lspu     = core.NewLSPU()
		seg      *core.Segment
		segCount int
		eff      emu.Effect

		totalInsts, totalEntries int64
		totalBytes               int64
		kindCounts               = map[core.EntryKind]int64{}
		reasonCounts             = map[core.BoundaryReason]int64{}
		hotness                  = map[uint64]int64{}
		executed                 int64
		checksOK, checksBad      int
	)
	hart := mach.Harts[0]
	begin := func() {
		seg = &core.Segment{Hart: 0, Seq: segCount, Start: hart.State}
		counter.TimeoutInsts = timeout
		counter.Reset(capacity)
	}
	begin()

	fmt.Printf("workload %s: timeout %d insts, LSL capacity %d lines, hash=%v\n\n",
		w.Name, timeout, capacity, hash)
	fmt.Printf("%-5s %-9s %7s %8s %8s %9s  %s\n",
		"seg", "reason", "insts", "entries", "bytes", "lines", "check")

	for executed < insts && !hart.Halted {
		if err := mach.StepHart(0, &eff); err != nil {
			return err
		}
		executed++
		seg.Insts++
		if disasm > 0 {
			hotness[eff.PC]++
		}
		pushed := 0
		if entry, ok := core.EntryFromEffect(&eff); ok {
			seg.Entries = append(seg.Entries, entry)
			size := entry.SizeBytes(hash)
			pushed = lspu.Append(size)
			seg.LogLines += pushed
			seg.LogBytes += size
			kindCounts[entry.Kind]++
		}
		reason := counter.Tick(pushed)
		if eff.Halted || executed >= insts {
			reason = core.BoundaryHalt
		}
		if reason == core.BoundaryInvalid {
			continue
		}
		seg.LogLines += lspu.Flush()
		seg.End = hart.State
		seg.Reason = reason
		reasonCounts[reason]++
		res := core.CheckSegment(w.Prog, seg, false, nil, nil)
		verdict := "OK"
		if res.Detected() {
			verdict = fmt.Sprintf("FAIL %v", res.Mismatches[0])
			checksBad++
		} else {
			checksOK++
		}
		if segCount < maxSegs {
			fmt.Printf("%-5d %-9s %7d %8d %8d %9d  %s\n",
				segCount, seg.Reason, seg.Insts, len(seg.Entries), seg.LogBytes, seg.LogLines, verdict)
		}
		totalInsts += int64(seg.Insts)
		totalEntries += int64(len(seg.Entries))
		totalBytes += int64(seg.LogBytes)
		segCount++
		begin()
	}

	fmt.Printf("\n%d segments over %d instructions; %d checks passed, %d failed\n",
		segCount, totalInsts, checksOK, checksBad)
	if totalInsts > 0 {
		fmt.Printf("log density: %.3f entries/inst, %.2f B/inst\n",
			float64(totalEntries)/float64(totalInsts), float64(totalBytes)/float64(totalInsts))
	}
	fmt.Println("\nentry kinds:")
	for kind := core.EntryLoad; kind <= core.EntryNonRepeat; kind++ {
		if n := kindCounts[kind]; n > 0 {
			fmt.Printf("  %-12v %8d\n", kindName(kind), n)
		}
	}
	fmt.Println("boundary reasons:")
	for r := core.BoundaryLSLFull; r <= core.BoundaryHalt; r++ {
		if n := reasonCounts[r]; n > 0 {
			fmt.Printf("  %-12v %8d\n", r, n)
		}
	}

	if disasm > 0 {
		type hot struct {
			pc uint64
			n  int64
		}
		hots := make([]hot, 0, len(hotness))
		for pc, n := range hotness {
			hots = append(hots, hot{pc, n})
		}
		sort.Slice(hots, func(i, j int) bool { return hots[i].n > hots[j].n })
		if len(hots) > disasm {
			hots = hots[:disasm]
		}
		sort.Slice(hots, func(i, j int) bool { return hots[i].pc < hots[j].pc })
		fmt.Printf("\nhottest %d instructions:\n", len(hots))
		for _, h := range hots {
			fmt.Printf("  %6d x%-8d %s\n", h.pc, h.n, disassemble(w.Prog, h.pc))
		}
	}
	return nil
}

func kindName(k core.EntryKind) string {
	switch k {
	case core.EntryLoad:
		return "load"
	case core.EntryStore:
		return "store"
	case core.EntryLoadStore:
		return "swap"
	case core.EntryGather:
		return "gather"
	case core.EntryScatter:
		return "scatter"
	case core.EntryNonRepeat:
		return "non-repeat"
	default:
		return "?"
	}
}

func disassemble(p *isa.Program, pc uint64) string {
	if pc >= uint64(len(p.Insts)) {
		return "<out of range>"
	}
	return p.Insts[pc].String()
}
