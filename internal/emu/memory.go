//paralint:deterministic

// Package emu implements the functional emulator for the repo ISA:
// architectural state, sparse byte-addressable memory shared between
// harts, per-instruction effect records (the raw material for load-store
// logging, timing simulation and checking), and pluggable environments so
// checker cores can re-execute instructions with loads served from a
// load-store log instead of memory.
package emu

import (
	"encoding/binary"
	"fmt"

	"paraverser/internal/isa"
)

// pageBits gives 4KiB pages.
const pageBits = 12
const pageSize = 1 << pageBits

type page [pageSize]byte

// Memory is a sparse, paged, byte-addressable memory. The zero value is
// ready to use. Memory is not safe for concurrent use; multi-hart
// programs are interleaved deterministically on one goroutine.
//
// A NewProgramMemory memory overlays the program's data segment: pages
// nothing has written are read in place from the segment, which no
// memory ever writes, so any number of memories may share one program.
type Memory struct {
	// data is the program's segment and basePN its first page number.
	// seg has one slot per segment page: nil while the page is read from
	// data, its private copy once written.
	data   *isa.Segment
	basePN uint64
	seg    []*page
	// pages holds the private pages outside the segment.
	pages map[uint64]*page
	// One-entry page cache: accesses are heavily page-local, so most
	// loads and stores skip the lookup entirely. lastRO marks a cached
	// segment page, so the write path never writes it through the cache.
	lastPN   uint64
	lastPage *page
	lastRO   bool
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// NewProgramMemory returns the initial memory of a valid program, its
// data segment at DataBase. It copies nothing: segment pages are read
// in place until written.
func NewProgramMemory(prog *isa.Program) *Memory {
	return &Memory{
		data:   prog.Data,
		basePN: prog.DataBase >> pageBits,
		seg:    make([]*page, prog.Data.NumPages()),
	}
}

// Clone returns a memory with m's contents that shares its segment
// and copies its private pages.
func (m *Memory) Clone() *Memory {
	c := &Memory{data: m.data, basePN: m.basePN, seg: make([]*page, len(m.seg)),
		pages: make(map[uint64]*page, len(m.pages))}
	for i, p := range m.seg {
		if p != nil {
			cp := *p
			c.seg[i] = &cp
		}
	}
	for pn, p := range m.pages {
		cp := *p
		c.pages[pn] = &cp
	}
	return c
}

// pageFor is the read-path lookup: nil when the page is unmapped.
func (m *Memory) pageFor(addr uint64) *page {
	if p := m.lastPage; p != nil && addr>>pageBits == m.lastPN {
		return p
	}
	return m.lookup(addr)
}

// lookup is pageFor's miss path, out of line so the hit path inlines.
func (m *Memory) lookup(addr uint64) *page {
	pn := addr >> pageBits
	if i := pn - m.basePN; i < uint64(len(m.seg)) {
		p := m.seg[i]
		m.lastRO = p == nil
		if p == nil {
			p = (*page)(m.data.Page(int(i)))
		}
		m.lastPN, m.lastPage = pn, p
		return p
	}
	p := m.pages[pn]
	if p != nil {
		m.lastPN, m.lastPage, m.lastRO = pn, p, false
	}
	return p
}

// pageForWrite returns a writable page for addr, creating it when
// unmapped and copying it first when it is still a segment page.
func (m *Memory) pageForWrite(addr uint64) *page {
	pn := addr >> pageBits
	if p := m.lastPage; p != nil && pn == m.lastPN && !m.lastRO {
		return p
	}
	var p *page
	if i := pn - m.basePN; i < uint64(len(m.seg)) {
		if p = m.seg[i]; p == nil {
			p = new(page)
			*p = *m.data.Page(int(i))
			m.seg[i] = p
		}
	} else if p = m.pages[pn]; p == nil {
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		p = new(page)
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage, m.lastRO = pn, p, false
	return p
}

// Load reads size bytes (1, 2, 4 or 8) little-endian, zero-extended.
// Unmapped memory reads as zero.
func (m *Memory) Load(addr uint64, size uint8) (uint64, error) {
	if err := checkSize(size); err != nil {
		return 0, err
	}
	// Fast path: access within one page.
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := m.pageFor(addr)
		if p == nil {
			return 0, nil
		}
		switch size {
		case 1:
			return uint64(p[off]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:])), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:])), nil
		default:
			return binary.LittleEndian.Uint64(p[off:]), nil
		}
	}
	// Page-straddling access: byte at a time.
	var v uint64
	for i := uint8(0); i < size; i++ {
		b := m.loadByte(addr + uint64(i))
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

func (m *Memory) loadByte(addr uint64) byte {
	p := m.pageFor(addr)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Store writes the low size bytes of val little-endian.
func (m *Memory) Store(addr uint64, size uint8, val uint64) error {
	if err := checkSize(size); err != nil {
		return err
	}
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := m.pageForWrite(addr)
		switch size {
		case 1:
			p[off] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
		default:
			binary.LittleEndian.PutUint64(p[off:], val)
		}
		return nil
	}
	for i := uint8(0); i < size; i++ {
		p := m.pageForWrite(addr + uint64(i))
		p[(addr+uint64(i))&(pageSize-1)] = byte(val >> (8 * i))
	}
	return nil
}

// ReadBytes copies n bytes out of memory page-at-a-time.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	dst := out
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		span := uint64(pageSize) - off
		if uint64(len(dst)) < span {
			span = uint64(len(dst))
		}
		if p := m.pageFor(addr); p != nil {
			copy(dst[:span], p[off:off+span])
		}
		addr += span
		dst = dst[span:]
	}
	return out
}

// PagesMapped returns the number of mapped 4KiB pages (every segment
// page, written or not, built yet or not), for footprint assertions in
// tests.
func (m *Memory) PagesMapped() int { return len(m.seg) + len(m.pages) }

func checkSize(size uint8) error {
	switch size {
	case 1, 2, 4, 8:
		return nil
	default:
		return fmt.Errorf("emu: bad access size %d", size)
	}
}
