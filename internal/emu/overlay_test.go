package emu

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/isa"
	"paraverser/internal/workload/spec"
)

// segProgram returns a program with dataLen bytes of data, every 8-byte
// word initialised to its offset plus 1, and the offsets of one word in
// every segment page (the last one in the tail when dataLen is not a
// page multiple). Run, the program increments each of those words once,
// so it stores to every page of the segment.
func segProgram(dataLen int) (*isa.Program, []uint64) {
	b := asm.New("seg-stores")
	base := b.Reserve(dataLen)
	for off := 0; off+8 <= dataLen; off += 8 {
		b.SetWord64(base+uint64(off), uint64(off)+1)
	}
	var offs []uint64
	for off := 0; off < dataLen; off += pageSize {
		offs = append(offs, base+uint64(off))
	}
	if last := base + uint64(dataLen) - 8; last > offs[len(offs)-1] {
		offs = append(offs, last&^7)
	}
	const rAddr, rVal = isa.Reg(10), isa.Reg(11)
	for _, off := range offs {
		b.Li(rAddr, int64(b.DataAddr(off)))
		b.Ld(8, rVal, rAddr, 0)
		b.Addi(rVal, rVal, 1)
		b.St(8, rVal, rAddr, 0)
	}
	b.Halt()
	return b.MustBuild(), offs
}

// segForms returns segProgram(dataLen) in both segment forms: as built,
// its segment held as bytes, and with the same bytes generated chunk by
// chunk on first touch.
func segForms(dataLen int) ([]*isa.Program, []uint64) {
	prog, offs := segProgram(dataLen)
	data := prog.Data.Bytes()
	gen := &isa.Program{Name: prog.Name + "+gen", Insts: prog.Insts, DataBase: prog.DataBase, Entries: prog.Entries,
		Data: isa.GeneratedSegment(len(data), func(c int, dst []byte) { copy(dst, data[c*isa.ChunkBytes:]) })}
	return []*isa.Program{prog, gen}, offs
}

// copiedMemory returns prog's initial memory with every data byte
// stored into private pages, the reference an overlay must match.
func copiedMemory(t *testing.T, prog *isa.Program) *Memory {
	t.Helper()
	m := NewMemory()
	for i, b := range prog.Data.Bytes() {
		if err := m.Store(prog.DataBase+uint64(i), 1, uint64(b)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestMemorySnapshotWriteIsolation: memories overlaying one program, and
// clones of them, never see each other's stores, and none of them
// writes the program's Data.
func TestMemorySnapshotWriteIsolation(t *testing.T) {
	progs, offs := segForms(3 * pageSize)
	for _, prog := range progs {
		t.Run(prog.Name, func(t *testing.T) { testWriteIsolation(t, prog, offs) })
	}
}

func testWriteIsolation(t *testing.T, prog *isa.Program, offs []uint64) {
	orig := prog.Data.Bytes()
	addr := prog.DataBase + offs[1]

	a, b := NewProgramMemory(prog), NewProgramMemory(prog)
	if err := a.Store(addr, 8, 111); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Load(addr, 8); got != offs[1]+1 {
		t.Errorf("sibling sees store: got %d, want %d", got, offs[1]+1)
	}
	if got, _ := a.Load(addr, 8); got != 111 {
		t.Errorf("memory lost its own store: got %d, want 111", got)
	}

	// A clone starts from the parent's contents, then diverges both ways.
	c := a.Clone()
	if got, _ := c.Load(addr, 8); got != 111 {
		t.Errorf("clone misses the parent's store: got %d, want 111", got)
	}
	if err := c.Store(addr, 8, 222); err != nil {
		t.Fatal(err)
	}
	if err := a.Store(prog.DataBase+offs[2], 8, 333); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Load(addr, 8); got != 111 {
		t.Errorf("parent sees clone store: got %d, want 111", got)
	}
	if got, _ := c.Load(prog.DataBase+offs[2], 8); got != offs[2]+1 {
		t.Errorf("clone sees parent store: got %d, want %d", got, offs[2]+1)
	}
	if !bytes.Equal(prog.Data.Bytes(), orig) {
		t.Error("stores reached the program's Data")
	}
}

// TestMemorySnapshotPageCacheCoherent: the one-entry page cache must not
// hand the write path a segment page it filled on a load.
func TestMemorySnapshotPageCacheCoherent(t *testing.T) {
	progs, offs := segForms(2 * pageSize)
	for _, prog := range progs {
		testPageCacheCoherent(t, prog, offs)
	}
}

func testPageCacheCoherent(t *testing.T, prog *isa.Program, offs []uint64) {
	addr := prog.DataBase + offs[0]
	for _, m := range []*Memory{NewProgramMemory(prog), NewProgramMemory(prog).Clone()} {
		// Load caches the segment page; the next store must still copy it
		// rather than trust the cached entry.
		if got, _ := m.Load(addr, 8); got != offs[0]+1 {
			t.Fatalf("initial load = %d, want %d", got, offs[0]+1)
		}
		if err := m.Store(addr, 8, 9); err != nil {
			t.Fatal(err)
		}
		if got, _ := m.Load(addr, 8); got != 9 {
			t.Errorf("readback = %d, want 9", got)
		}
		if got, _ := NewProgramMemory(prog).Load(addr, 8); got != offs[0]+1 {
			t.Errorf("program Data corrupted through cached page: got %d, want %d", got, offs[0]+1)
		}
	}
}

// runToEnd drives a machine to completion and returns the result word.
func runToEnd(t *testing.T, m *Machine, prog *isa.Program) uint64 {
	t.Helper()
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Mem.Load(prog.DataBase, 8)
	return got
}

// TestMachineSharedMatchesPrivate: a machine over the overlay must
// execute identically to one over a privately copied data segment, and
// two machines over one program must not observe each other's stores.
func TestMachineSharedMatchesPrivate(t *testing.T) {
	progs, _ := segForms(2*pageSize + 40)
	for _, prog := range progs {
		t.Run(prog.Name, func(t *testing.T) { testSharedMatchesPrivate(t, prog) })
	}
}

func testSharedMatchesPrivate(t *testing.T, prog *isa.Program) {
	priv, err := NewMachine(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	priv.Mem = copiedMemory(t, prog)
	for _, env := range priv.Env {
		env.Mem = priv.Mem
	}
	want := runToEnd(t, priv, prog)

	a, err := NewMachine(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := runToEnd(t, a, prog); got != want {
		t.Errorf("shared run = %d, private = %d", got, want)
	}
	if a.Harts[0].State != priv.Harts[0].State {
		t.Error("shared and private end states differ")
	}
	memEqual(t, priv.Mem, a.Mem)

	// A second machine over the same program starts from pristine
	// contents despite the first one's store to the result word.
	b, err := NewMachine(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Mem.Load(prog.DataBase, 8); got != 1 {
		t.Errorf("fresh machine sees sibling store: %d", got)
	}
	if got := runToEnd(t, b, prog); got != want {
		t.Errorf("second shared run = %d, want %d", got, want)
	}
}

// TestMachineLeavesProgramDataUntouched: a run storing to every segment
// page leaves prog.Data byte-equal to a copy taken before, for a
// segment ending in a full page, one ending in a partial tail page, and
// one spanning two chunks.
func TestMachineLeavesProgramDataUntouched(t *testing.T) {
	for _, dataLen := range []int{3 * pageSize, 3*pageSize + 100, isa.ChunkBytes + 3*pageSize + 100} {
		progs, offs := segForms(dataLen)
		for _, prog := range progs {
			testLeavesDataUntouched(t, prog, offs)
		}
	}
}

func testLeavesDataUntouched(t *testing.T, prog *isa.Program, offs []uint64) {
	dataLen := prog.Data.Len()
	orig := prog.Data.Bytes()
	m, err := NewMachine(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	for _, off := range offs {
		if got, _ := m.Mem.Load(prog.DataBase+off, 8); got != off+2 {
			t.Errorf("len %d: word %#x = %d, want %d", dataLen, off, got, off+2)
		}
	}
	if !bytes.Equal(prog.Data.Bytes(), orig) {
		t.Fatalf("len %d: run wrote the program's Data", dataLen)
	}
}

// TestNewMachineSharesDataSegment: building a machine for a program
// with a 16 MiB data segment copies none of it.
func TestNewMachineSharesDataSegment(t *testing.T) {
	const budget = 256 << 10
	b := asm.New("big-seg")
	b.Reserve(16 << 20)
	b.Halt()
	prog := b.MustBuild()
	if _, err := NewMachine(prog, 1); err != nil { // warm the predecode tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewMachine(prog, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("NewMachine allocates %d KiB, want <= %d KiB", got>>10, budget>>10)
	}
}

// TestMemoryPagesOverlay: the overlay keeps every segment page
// resident, written or not, plus the pages written outside the segment,
// with the same bytes as a fully copied memory.
func TestMemoryPagesOverlay(t *testing.T) {
	progs, offs := segForms(3*pageSize + 100)
	for _, prog := range progs {
		t.Run(prog.Name, func(t *testing.T) { testPagesOverlay(t, prog, offs) })
	}
}

func testPagesOverlay(t *testing.T, prog *isa.Program, offs []uint64) {
	over, ref := NewProgramMemory(prog), copiedMemory(t, prog)
	stores := []uint64{
		prog.DataBase - 5*pageSize,     // below the segment
		prog.DataBase + offs[1],        // a segment page
		prog.DataBase + offs[3],        // the tail page
		prog.DataBase + 64*pageSize,    // above the segment
		prog.DataBase + 4*pageSize - 3, // straddles the tail into the next page
	}
	for i, addr := range stores {
		for _, m := range []*Memory{over, ref} {
			if err := m.Store(addr, 8, uint64(i)+0xA0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if over.PagesMapped() != ref.PagesMapped() || over.PagesMapped() != 7 {
		t.Errorf("pages mapped = %d, copied memory %d, want 7", over.PagesMapped(), ref.PagesMapped())
	}
	memEqual(t, ref, over)
}

// TestMemoryZeroValue: the zero Memory is ready to use.
func TestMemoryZeroValue(t *testing.T) {
	var m Memory
	if err := m.Store(0x1000, 8, 1); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Load(0x1000, 8); got != 1 {
		t.Errorf("readback = %d, want 1", got)
	}
	if m.PagesMapped() != 1 {
		t.Errorf("pages mapped = %d, want 1", m.PagesMapped())
	}
}

// TestGeneratedSegmentConcurrentFirstTouch: memories made at once from
// many goroutines on one generated program, each loading from random
// offsets before any chunk exists, all read the segment's bytes, which
// stay what Bytes returns afterwards.
func TestGeneratedSegmentConcurrentFirstTouch(t *testing.T) {
	p, err := spec.ByName("leela") // a 4 MiB working set: 16 chunks
	if err != nil {
		t.Fatal(err)
	}
	prog := p.MustBuild(1 << 40)
	const readers, reads = 8, 4000
	offsets := func(r int) *rand.Rand { return rand.New(rand.NewSource(int64(r))) }
	got := make([][]uint64, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m, rng := NewProgramMemory(prog), offsets(r)
			vals := make([]uint64, reads)
			for i := range vals {
				// Any byte offset: some loads straddle two pages.
				vals[i], _ = m.Load(prog.DataBase+uint64(rng.Intn(prog.Data.Len()-7)), 8)
			}
			got[r] = vals
		}(r)
	}
	wg.Wait()
	want := prog.Data.Bytes()
	for r, vals := range got {
		rng := offsets(r)
		for i, v := range vals {
			off := rng.Intn(prog.Data.Len() - 7)
			if w := binary.LittleEndian.Uint64(want[off:]); v != w {
				t.Fatalf("reader %d load %d at +%#x = %#x, want %#x", r, i, off, v, w)
			}
		}
	}
}
