//paralint:deterministic

// Package core implements ParaVerser itself (section IV of the paper):
// the load-store-log entry format and Load-Store Log Cache accounting, the
// Load-Store Push Unit, the Register Checkpointing Unit, the Load-Store
// Comparator, the instruction counter, speculative indexed log access for
// out-of-order checker cores, eager checker waking, Hash Mode, the
// full-coverage and opportunistic operating modes, checker-core
// allocation, and the system orchestrator that couples main cores to
// checker cores over the NoC.
package core

import (
	"fmt"

	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// EntryKind classifies a load-store-log entry.
type EntryKind uint8

// Entry kinds. Enums start at one.
const (
	EntryInvalid EntryKind = iota
	EntryLoad
	EntryStore
	EntryLoadStore // atomic swap: loaded data then stored data
	EntryGather    // two loads, two base addresses
	EntryScatter   // two stores, two base addresses
	EntryNonRepeat // RAND/CYCLE value, payload only
)

// MemRec is one address/size/data triple inside an entry. The two
// one-byte fields sit together after the words, so a record packs into
// 24 bytes: log arenas, retained probation segments and SpecCache
// recordings all hold slices of them.
type MemRec struct {
	Addr uint64
	Data uint64
	Size uint8
	Load bool
}

// Entry is one load-store-log entry in ISA format (section IV-B): a 7-byte
// address, a 1-byte size and a payload rounded to the nearest 8 bytes.
// Multi-address instructions (scatter/gather) store each address, size and
// data in sequence, lowest address first (footnote 10). Atomic swaps carry
// the loaded data first, then the stored data.
type Entry struct {
	Kind EntryKind
	Ops  []MemRec
}

// EntryFromEffect builds the log entry for an executed instruction, or
// returns ok=false when the instruction produces no entry.
func EntryFromEffect(eff *emu.Effect) (Entry, bool) {
	var arena []MemRec
	return EntryFromEffectArena(eff, &arena)
}

// EntryFromEffectArena is EntryFromEffect with the entry's Ops carved out
// of a caller-owned arena: the records are appended to *arena and the
// entry receives a capacity-clipped sub-slice, so a segment's worth of
// entries shares one grow-once backing array instead of allocating per
// instruction. The caller must not truncate the arena while any entry
// taken from it is still reachable (Segment copies that outlive a
// segment must deep-copy their Ops).
//
//paralint:hotpath
func EntryFromEffectArena(eff *emu.Effect, arena *[]MemRec) (Entry, bool) {
	a := *arena
	start := len(a)
	var e Entry
	if eff.NonRepeat {
		e.Kind = EntryNonRepeat
		//paralint:allow(arena append: grows once per segment, then reuses capacity)
		a = append(a, MemRec{Size: 8, Data: eff.NonRepeatVal, Load: true})
	} else {
		if eff.NMem == 0 {
			return Entry{}, false
		}
		for i := 0; i < eff.NMem; i++ {
			m := eff.Mem[i]
			//paralint:allow(arena append: grows once per segment, then reuses capacity)
			a = append(a, MemRec{
				Addr: m.Addr, Size: m.Size, Data: m.Data, Load: m.Kind == emu.MemLoad,
			})
		}
		nOps := len(a) - start
		switch eff.Class {
		case isa.ClassAtomic:
			e.Kind = EntryLoadStore // load first, then store: already in order
		case isa.ClassLoad:
			if nOps == 2 {
				e.Kind = EntryGather
			} else {
				e.Kind = EntryLoad
			}
		case isa.ClassStore:
			if nOps == 2 {
				e.Kind = EntryScatter
			} else {
				e.Kind = EntryStore
			}
		default:
			return Entry{}, false
		}
	}
	*arena = a
	e.Ops = a[start:len(a):len(a)]
	return e, true
}

// WireOps returns the ops in the on-wire LSL$ layout order: multi-address
// (scatter/gather) entries store each address, size and data in sequence,
// lowest address first (footnote 10 of the paper). In-memory Ops stay in
// execution order because the checker's comparator consumes them by the
// instruction's own operand order.
func (e Entry) WireOps() []MemRec {
	ops := append([]MemRec(nil), e.Ops...)
	if (e.Kind == EntryGather || e.Kind == EntryScatter) &&
		len(ops) == 2 && ops[1].Addr < ops[0].Addr {
		ops[0], ops[1] = ops[1], ops[0]
	}
	return ops
}

// payloadBytes returns the data payload size, rounded up to 8 bytes per
// datum as the LSL format requires.
func roundUp8(n int) int { return (n + 7) &^ 7 }

// SizeBytes returns the encoded entry size pushed over the NoC.
//
// In normal mode every op contributes 7B address + 1B size + its payload
// rounded to 8B (an atomic swap shares one address: 7+1 then both
// payloads). In Hash Mode only data needed to reproduce execution is
// stored — loaded data and non-repeatable values, payload only — while
// addresses, sizes and stored data are folded into the running SHA-256
// (section IV-I), so stores contribute nothing.
func (e Entry) SizeBytes(hashMode bool) int {
	if hashMode {
		n := 0
		for _, op := range e.Ops {
			if op.Load {
				n += roundUp8(int(op.Size))
			}
		}
		return n
	}
	switch e.Kind {
	case EntryNonRepeat:
		return 8 // payload only: nothing to verify, only to replay
	case EntryLoadStore:
		// One base address, then loaded and stored payloads.
		return 8 + roundUp8(int(e.Ops[0].Size)) + roundUp8(int(e.Ops[1].Size))
	case EntryGather, EntryScatter:
		n := 0
		for _, op := range e.Ops {
			n += 8 + roundUp8(int(op.Size))
		}
		return n
	default:
		return 8 + roundUp8(int(e.Ops[0].Size))
	}
}

// Validate checks structural invariants of the entry.
func (e Entry) Validate() error {
	switch e.Kind {
	case EntryLoad, EntryStore, EntryNonRepeat:
		if len(e.Ops) != 1 {
			return fmt.Errorf("core: %v entry with %d ops", e.Kind, len(e.Ops))
		}
	case EntryLoadStore, EntryGather, EntryScatter:
		if len(e.Ops) != 2 {
			return fmt.Errorf("core: %v entry with %d ops", e.Kind, len(e.Ops))
		}
	default:
		return fmt.Errorf("core: invalid entry kind %d", e.Kind)
	}
	if e.Kind == EntryGather || e.Kind == EntryScatter {
		w := e.WireOps()
		if w[0].Addr > w[1].Addr {
			return fmt.Errorf("core: wire layout of multi-address entry not lowest-address-first")
		}
	}
	if e.Kind == EntryLoadStore && (!e.Ops[0].Load || e.Ops[1].Load) {
		return fmt.Errorf("core: swap entry must be load-then-store")
	}
	return nil
}
