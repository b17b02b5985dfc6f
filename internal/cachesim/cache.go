// Package cachesim implements the cache hierarchy used by the core timing
// models: set-associative write-back caches with LRU replacement and
// per-level statistics, plus the Load-Store-Log repurposing of a data
// cache (the LSL$ of section IV-B: cache lines progressively replaced by
// log entries, a log-end register, and eviction of resident data).
package cachesim

import (
	"fmt"
	"math/bits"
	"sync"
)

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	// HitCycles is the hit latency in cycles of the owning clock domain.
	HitCycles int
	// MSHRs bounds the number of outstanding misses (used by the CPU
	// timing model to limit memory-level parallelism).
	MSHRs int
}

// Lines returns the total number of cache lines.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Ways }

// Validate checks the configuration is coherent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: sets %d not a power of two", c.Name, s)
	}
	return nil
}

// Stats counts accesses per cache.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
	// LogEvictions counts resident lines evicted to make room for
	// load-store-log entries (LSL$ repurposing).
	LogEvictions uint64
}

// MissRate returns misses/accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// way is one cache line's bookkeeping. The line's identity — tag, valid
// bit and the log bit (the extra tag bit of fig. 3 marking a line that
// holds load-store-log entries rather than a cached copy of memory) —
// is packed into one key word so the hit scan, which runs for every
// access of every simulated instruction, is a single comparison per way
// instead of a tag compare plus two flag loads.
type way struct {
	key   uint64 // tag<<2 | wayLog | wayValid
	lru   uint32
	dirty bool
}

const (
	wayValid = uint64(1) << 0
	wayLog   = uint64(1) << 1
)

// Cache is one set-associative cache. The zero value is not usable; use
// New.
type Cache struct {
	cfg Config
	// ways holds every line, set-contiguous: set s occupies
	// ways[s*Ways : (s+1)*Ways]. A flat slice saves the per-access
	// pointer chase of a slice-of-slices.
	ways     []way
	lruClock uint32
	Stats    Stats

	// Derived geometry, precomputed once in New: setIndex and tagOf run
	// for every access of every simulated instruction, and recomputing
	// Config.Sets() there costs two integer divisions per lookup.
	lineShift int32 // log2(LineBytes), or -1 when not a power of two
	setMask   uint64
	setShift  uint32 // log2(Sets); Sets is always a power of two
	nsets     int
	nways     int

	// logEnd is the Load-Store Log End register: the number of lines
	// currently holding log entries, filled linearly from line 0
	// (set-major order).
	logEnd int

	// touched marks the sets a fill or LogAppendLine wrote — the only
	// writers of a set that New left zero — so Release clears what a run
	// wrote instead of the whole array. A hit implies an earlier fill, so
	// the hit path never writes it. Set s is bit s*Ways (the index of its
	// first line): fill derives that from the set slice alone, so Access
	// keeps no extra state live across its way scan.
	touched []uint64
}

// pools recycles released caches per configuration: New draws from the
// pool of its Config before allocating, Release puts a reset cache back.
var (
	poolsMu sync.Mutex
	pools   = map[Config]*sync.Pool{}
)

func poolFor(cfg Config) *sync.Pool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := pools[cfg]
	if p == nil {
		p = new(sync.Pool)
		pools[cfg] = p
	}
	return p
}

// New builds a cache from cfg, recycling a released cache of the same
// configuration when one is available.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if c, ok := poolFor(cfg).Get().(*Cache); ok {
		return c, nil
	}
	c := &Cache{
		cfg:       cfg,
		ways:      make([]way, cfg.Lines()),
		touched:   make([]uint64, (cfg.Lines()+63)/64),
		lineShift: -1,
		setMask:   uint64(cfg.Sets() - 1),
		setShift:  uint32(bits.TrailingZeros(uint(cfg.Sets()))),
		nsets:     cfg.Sets(),
		nways:     cfg.Ways,
	}
	if lb := cfg.LineBytes; lb&(lb-1) == 0 {
		c.lineShift = int32(bits.TrailingZeros(uint(lb)))
	}
	return c, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// lineOf returns the line index of addr: a shift for power-of-two line
// sizes (every shipped geometry), a division otherwise.
func (c *Cache) lineOf(addr uint64) uint64 {
	if c.lineShift >= 0 {
		return addr >> uint(c.lineShift)
	}
	return addr / uint64(c.cfg.LineBytes)
}

func (c *Cache) setIndex(addr uint64) uint64 { return c.lineOf(addr) & c.setMask }

func (c *Cache) tagOf(addr uint64) uint64 { return c.lineOf(addr) >> c.setShift }

// set returns the ways of addr's set.
func (c *Cache) set(addr uint64) []way {
	base := int(c.setIndex(addr)) * c.nways
	return c.ways[base : base+c.nways]
}

// Access looks up addr, allocating on miss (write-allocate). It returns
// true on hit. Dirty evictions count as writebacks.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.Stats.Accesses++
	c.lruClock++
	set := c.set(addr)
	want := c.tagOf(addr)<<2 | wayValid
	for i := range set {
		w := &set[i]
		if w.key == want {
			w.lru = c.lruClock
			if write {
				w.dirty = true
			}
			return true
		}
	}
	c.Stats.Misses++
	c.fill(set, want, write)
	return false
}

// Probe looks up addr without side effects.
func (c *Cache) Probe(addr uint64) bool {
	set := c.set(addr)
	want := c.tagOf(addr)<<2 | wayValid
	for i := range set {
		if set[i].key == want {
			return true
		}
	}
	return false
}

func (c *Cache) fill(set []way, want uint64, write bool) {
	// set is c.ways[first : first+nways] and len(c.ways) == cap(c.ways).
	c.touch(len(c.ways) - cap(set))
	victim := -1
	var oldest uint32 = ^uint32(0)
	for i := range set {
		w := &set[i]
		if w.key&wayLog != 0 {
			continue // log lines are not eligible replacement victims
		}
		if w.key&wayValid == 0 {
			victim = i
			break
		}
		if w.lru <= oldest {
			oldest = w.lru
			victim = i
		}
	}
	if victim < 0 {
		// Every way holds log entries; the access bypasses the cache.
		return
	}
	w := &set[victim]
	if w.key&wayValid != 0 && w.dirty {
		c.Stats.Writebacks++
	}
	*w = way{key: want, dirty: write, lru: c.lruClock}
}

// touch records that the set whose first line is first may differ from
// its New state.
func (c *Cache) touch(first int) { c.touched[first>>6] |= 1 << (first & 63) }

// Release returns c to exactly the state New builds and hands it to the
// next New of the same Config. The caller must not use c afterwards.
// Only the touched sets are cleared, so releasing after a short run
// costs what the run wrote, not the size of the tag array.
func (c *Cache) Release() {
	c.reset()
	poolFor(c.cfg).Put(c)
}

// reset clears every touched set and the run's counters and registers.
func (c *Cache) reset() {
	for i, word := range c.touched {
		for word != 0 {
			first := i<<6 + bits.TrailingZeros64(word)
			clear(c.ways[first : first+c.nways])
			word &= word - 1
		}
		c.touched[i] = 0
	}
	c.lruClock = 0
	c.Stats = Stats{}
	c.logEnd = 0
}

// InvalidateAll drops every non-log line (e.g. when a core is handed to a
// different process).
func (c *Cache) InvalidateAll() {
	for i := range c.ways {
		if c.ways[i].key&wayLog == 0 {
			c.ways[i] = way{}
		}
	}
}

// --- Load-Store Log repurposing (fig. 3) ---

// LogCapacityLines returns how many lines the cache can devote to the
// load-store log (all of them).
func (c *Cache) LogCapacityLines() int { return c.cfg.Lines() }

// LogLines returns the current value of the Load-Store Log End register.
func (c *Cache) LogLines() int { return c.logEnd }

// LogAppendLine claims the next line for log entries, evicting any
// resident data in place (fig. 3: filling starts at index 0 and proceeds
// linearly). It returns false when the log is full.
func (c *Cache) LogAppendLine() bool {
	if c.logEnd >= len(c.ways) {
		return false
	}
	first := (c.logEnd % c.nsets) * c.nways
	c.touch(first)
	w := &c.ways[first+c.logEnd/c.nsets]
	if w.key&(wayValid|wayLog) == wayValid {
		c.Stats.LogEvictions++
		if w.dirty {
			c.Stats.Writebacks++
		}
	}
	*w = way{key: wayValid | wayLog, lru: c.lruClock}
	c.logEnd++
	return true
}

// LogReset releases all log lines (checkpoint finished); the lines become
// invalid, so the cache refills from scratch when the core resumes
// main-mode work.
func (c *Cache) LogReset() {
	for i := 0; i < c.logEnd; i++ {
		c.ways[(i%c.nsets)*c.nways+i/c.nsets] = way{}
	}
	c.logEnd = 0
}
