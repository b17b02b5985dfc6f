package emu

import "encoding/binary"

// PageCache is a per-hart one-entry page cache over a Memory: the block
// executor's accesses are heavily page-local per hart, so most loads
// and stores resolve through a raw page pointer without touching the
// Memory's map or its shared one-entry cache (which thrashes when
// several harts interleave on different pages). The zero value is an
// empty cache.
//
// Holding a raw *page pointer across calls is only sound while the
// page's identity is unchanged. The cache therefore records the
// Memory's generation counter at fill time and revalidates (owner
// pointer, generation, page number) on every access: a page creation,
// the copy of a base page (one still read in place from the program's
// Data) on its first write, or a different Memory make the entry miss.
// An entry a load filled with a base page is read-only, so a store
// through it refills through the copy-on-write slow path, as does a
// write to a different page than the cached one.
type PageCache struct {
	mem *Memory
	gen uint64
	pn  uint64
	pg  *page
	ro  bool
}

// Load is semantically identical to m.Load for the legal access sizes
// (1, 2, 4, 8 — callers execute validated programs only), serving
// page-local accesses from the cached pointer.
//
//paralint:hotpath
func (c *PageCache) Load(m *Memory, addr uint64, size uint8) (uint64, error) {
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		pn := addr >> pageBits
		pg := c.pg
		if c.mem != m || c.gen != m.gen || c.pn != pn || pg == nil {
			pg = m.pageFor(addr)
			if pg == nil {
				return 0, nil // unmapped reads as zero; nothing to cache
			}
			c.mem, c.gen, c.pn, c.pg, c.ro = m, m.gen, pn, pg, m.lastRO
		}
		switch size {
		case 1:
			return uint64(pg[off]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(pg[off:])), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(pg[off:])), nil
		default:
			return binary.LittleEndian.Uint64(pg[off:]), nil
		}
	}
	return m.Load(addr, size)
}

// Store is semantically identical to m.Store for the legal access
// sizes. A miss — including a hit on a read-only base page — refills
// through pageForWrite, which performs the copy-on-write.
//
//paralint:hotpath
func (c *PageCache) Store(m *Memory, addr uint64, size uint8, val uint64) error {
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		pn := addr >> pageBits
		pg := c.pg
		if c.mem != m || c.gen != m.gen || c.pn != pn || c.ro || pg == nil {
			pg = m.pageForWrite(addr)
			c.mem, c.gen, c.pn, c.pg, c.ro = m, m.gen, pn, pg, false
		}
		switch size {
		case 1:
			pg[off] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(pg[off:], uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(pg[off:], uint32(val))
		default:
			binary.LittleEndian.PutUint64(pg[off:], val)
		}
		return nil
	}
	return m.Store(addr, size, val)
}
