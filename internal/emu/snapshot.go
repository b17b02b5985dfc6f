package emu

import (
	"fmt"
	"sync"

	"paraverser/internal/isa"
)

// MemSnapshot is an immutable view of a Memory taken by Snapshot. Pages
// are shared, never copied: every holder (the snapshotting Memory, any
// Memory built from the snapshot) treats them as copy-on-write, so a
// snapshot costs O(resident pages) map work with no byte copying. A
// snapshot's pages are read-only forever, which also makes one snapshot
// safe to materialise from many goroutines at once.
type MemSnapshot struct {
	pages map[uint64]*page
}

// Snapshot captures the memory's current contents. Every resident page
// becomes copy-on-write in the parent: the first subsequent write to a
// captured page copies it, leaving the snapshot untouched.
func (m *Memory) Snapshot() *MemSnapshot {
	snap := make(map[uint64]*page, len(m.pages))
	if m.ro == nil {
		m.ro = make(map[uint64]bool, len(m.pages))
	}
	for pn, p := range m.pages {
		snap[pn] = p
		m.ro[pn] = true
	}
	if m.lastPage != nil {
		m.lastRO = true
	}
	// Every resident page just changed permission; external PageCache
	// entries holding writable pointers must refetch through the
	// copy-on-write path.
	m.gen++
	return &MemSnapshot{pages: snap}
}

// NewMemoryFromSnapshot returns a Memory whose initial contents equal
// the snapshot, sharing its pages copy-on-write.
func NewMemoryFromSnapshot(s *MemSnapshot) *Memory {
	m := &Memory{
		pages: make(map[uint64]*page, len(s.pages)),
		ro:    make(map[uint64]bool, len(s.pages)),
	}
	for pn, p := range s.pages {
		m.pages[pn] = p
		m.ro[pn] = true
	}
	return m
}

// imageCache memoises one initial-memory snapshot per program pointer.
// Programs are immutable once built (the experiment layer guarantees one
// canonical *isa.Program per workload name), so the data segment needs
// materialising once per process instead of once per run — SPEC working
// sets run to tens of megabytes. Publication through sync.Map gives the
// cross-goroutine happens-before edge; a duplicate build under a race
// produces identical bytes and one winner.
var imageCache sync.Map // *isa.Program -> *MemSnapshot

// Image returns the program's materialised initial memory as a shared
// copy-on-write snapshot.
func Image(prog *isa.Program) *MemSnapshot {
	if v, ok := imageCache.Load(prog); ok {
		return v.(*MemSnapshot)
	}
	mem := NewMemory()
	mem.WriteBytes(prog.DataBase, prog.Data)
	snap := mem.Snapshot()
	v, _ := imageCache.LoadOrStore(prog, snap)
	return v.(*MemSnapshot)
}

// NewMachineShared is NewMachine with the program's initial memory
// served from the process-wide image cache: the data segment is shared
// copy-on-write instead of re-copied per run.
func NewMachineShared(prog *isa.Program, seed uint64) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	return newMachine(prog, NewMemoryFromSnapshot(Image(prog)), seed), nil
}
