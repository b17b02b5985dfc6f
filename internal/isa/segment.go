package isa

import "sync/atomic"

// PageSize is the page in which emulator memories map a data segment.
const PageSize = 4096

// ChunkBytes is the unit in which a data segment exists: a generated
// segment fills a chunk the first time any run reads one of its pages.
// At 256 KiB a SPEC working set's saved generator state is 1.9% of the
// chunk it regenerates, and a streaming run still leaves only a few MiB
// built (DESIGN §8.1).
const ChunkBytes = 1 << 18

// Segment is a program's initial data segment: immutable bytes, read
// page by page. A segment made from bytes holds every chunk from the
// start; a generated segment holds none and fills each on first touch,
// so bytes no run reads never exist. Segments are safe for concurrent
// use, and the nil segment is empty.
type Segment struct {
	n int
	// chunks[c] holds bytes [c*ChunkBytes, ...) of the segment, rounded
	// up to whole zero-padded pages; nil until filled.
	chunks []atomic.Pointer[[]byte]
	// fill writes chunk c's bytes into a zeroed dst (nil when every
	// chunk is set at construction).
	fill func(c int, dst []byte)
}

// NewSegment returns a segment holding b. Full chunks alias b, so b
// must not be mutated afterwards.
func NewSegment(b []byte) *Segment {
	s := &Segment{n: len(b), chunks: make([]atomic.Pointer[[]byte], numChunks(len(b)))}
	for c := range s.chunks {
		ck := b[c*ChunkBytes : min(len(b), (c+1)*ChunkBytes)]
		if len(ck)%PageSize != 0 {
			padded := make([]byte, s.chunkLen(c))
			copy(padded, ck)
			ck = padded
		}
		s.chunks[c].Store(&ck)
	}
	return s
}

// GeneratedSegment returns an n-byte segment whose chunk c is made by
// fill(c, dst) the first time one of its pages is read. dst arrives
// zeroed, ChunkBytes long (the page-rounded remainder for the last
// chunk). fill must be a pure function of c: two readers may fill the
// same chunk at once, and either result is kept.
func GeneratedSegment(n int, fill func(c int, dst []byte)) *Segment {
	return &Segment{n: n, chunks: make([]atomic.Pointer[[]byte], numChunks(n)), fill: fill}
}

func numChunks(n int) int { return (n + ChunkBytes - 1) / ChunkBytes }

// chunkLen is chunk c's length: ChunkBytes, or the segment's remainder
// rounded up to a page for the last chunk.
func (s *Segment) chunkLen(c int) int {
	rem := min(s.n-c*ChunkBytes, ChunkBytes)
	return (rem + PageSize - 1) &^ (PageSize - 1)
}

// chunk returns chunk c, filling it first if no reader has.
func (s *Segment) chunk(c int) []byte {
	if p := s.chunks[c].Load(); p != nil {
		return *p
	}
	b := make([]byte, s.chunkLen(c))
	s.fill(c, b)
	if !s.chunks[c].CompareAndSwap(nil, &b) {
		return *s.chunks[c].Load()
	}
	return b
}

// Len returns the segment's length in bytes.
func (s *Segment) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// NumPages returns the number of pages the segment spans; the last
// may be partial, and reads as zero past Len.
func (s *Segment) NumPages() int { return (s.Len() + PageSize - 1) / PageSize }

// Page returns page i (0 <= i < NumPages) for reading. It must not be
// written.
func (s *Segment) Page(i int) *[PageSize]byte {
	const perChunk = ChunkBytes / PageSize
	return (*[PageSize]byte)(s.chunk(i / perChunk)[i%perChunk*PageSize:])
}

// Bytes returns a copy of the whole segment, filling every chunk. It is
// for tests and whole-segment comparisons, not for runs.
func (s *Segment) Bytes() []byte {
	out := make([]byte, s.Len())
	for c := 0; c < numChunks(s.Len()); c++ {
		copy(out[c*ChunkBytes:], s.chunk(c))
	}
	return out
}

// ChunksFilled returns how many of the segment's chunks exist, and how
// many it has, for residency checks.
func (s *Segment) ChunksFilled() (filled, total int) {
	if s == nil {
		return 0, 0
	}
	for c := range s.chunks {
		if s.chunks[c].Load() != nil {
			filled++
		}
	}
	return filled, len(s.chunks)
}
