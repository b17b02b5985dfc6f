package cachesim

import (
	"reflect"
	"testing"
)

// resetConfigs are geometries no other test uses, so the pool holds no
// cache of theirs until this file releases one: a multi-word touched
// bitmap with power-of-two lines, and a line size that takes the
// division path of lineOf.
func resetConfigs() []Config {
	return []Config{
		{Name: "reset-pow2", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, HitCycles: 2, MSHRs: 4},
		{Name: "reset-odd-line", SizeBytes: 48 * 2 * 128, Ways: 2, LineBytes: 48, HitCycles: 3, MSHRs: 2},
	}
}

// traceAddrs returns a deterministic address stream that revisits lines
// and conflicts within sets: an LCG over a window of 4x the cache size.
func traceAddrs(cfg Config, n int) []uint64 {
	addrs := make([]uint64, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		x = x*6364136223846793005 + 1442695040888963407
		addrs[i] = (x >> 17) % uint64(4*cfg.SizeBytes)
	}
	return addrs
}

// driveAllPaths exercises every writer of the tag array: reads, writes,
// dirty evictions, log appends past capacity over resident data, a log
// reset, a partial log refill and InvalidateAll.
func driveAllPaths(t *testing.T, c *Cache) {
	t.Helper()
	cfg := c.Config()
	for i, a := range traceAddrs(cfg, 4*cfg.Lines()) {
		c.Access(a, i%3 == 0)
	}
	for c.LogAppendLine() {
	}
	if c.LogAppendLine() || c.LogLines() != c.LogCapacityLines() {
		t.Fatalf("%s: log append past capacity succeeded", cfg.Name)
	}
	c.Access(0x40, true) // every way holds log entries: bypass
	c.LogReset()
	for i, a := range traceAddrs(cfg, cfg.Lines()) {
		c.Access(a, i%2 == 0)
	}
	for i := 0; i < cfg.Lines()/3; i++ {
		c.LogAppendLine()
	}
	c.InvalidateAll()
	c.Access(0x80, false)
	st := c.Stats
	if st.Misses == 0 || st.Writebacks == 0 || st.LogEvictions == 0 || c.LogLines() == 0 {
		t.Fatalf("%s: drive left a path unexercised: %+v log=%d", cfg.Name, st, c.LogLines())
	}
}

// driveLogOnly appends log lines into sets no access has filled, so
// LogAppendLine is their only writer.
func driveLogOnly(_ *testing.T, c *Cache) {
	for i := 0; i < c.Config().Sets()/2; i++ {
		c.LogAppendLine()
	}
}

// TestResetRestoresNewState pins the recycling contract: after any mix
// of operations, reset leaves every field — tag array, touched bitmap,
// LRU clock, statistics, log-end register — equal to a fresh New, and
// the recycled cache then behaves access for access like the fresh one.
func TestResetRestoresNewState(t *testing.T) {
	for _, cfg := range resetConfigs() {
		fresh := MustNew(cfg)
		var c *Cache
		for _, drive := range []func(*testing.T, *Cache){driveLogOnly, driveAllPaths} {
			c = MustNew(cfg)
			drive(t, c)
			c.reset()
			if !reflect.DeepEqual(c, fresh) {
				t.Fatalf("%s: reset cache differs from a fresh New", cfg.Name)
			}
		}
		// Replay through the cache the all-paths drive recycled.
		for i, a := range traceAddrs(cfg, 8*cfg.Lines()) {
			write := i%5 == 0
			if got, want := c.Access(a, write), fresh.Access(a, write); got != want {
				t.Fatalf("%s: access %d (%#x): recycled hit=%v, fresh hit=%v", cfg.Name, i, a, got, want)
			}
			if c.Stats != fresh.Stats {
				t.Fatalf("%s: access %d: recycled stats %+v, fresh %+v", cfg.Name, i, c.Stats, fresh.Stats)
			}
		}
	}
}

// TestReleaseThenNew: a New after Release yields a cache equal to a
// fresh one whether or not the pool returned the released cache, and a
// released hierarchy drops its levels.
func TestReleaseThenNew(t *testing.T) {
	cfg := resetConfigs()[0]
	cfg.Name = "release-then-new"
	h := &Hierarchy{L1I: MustNew(cfg), L1D: MustNew(cfg), L2: MustNew(cfg)}
	h.Data(0x1000, true)
	h.Fetch(0x2000)
	h.L1D.LogAppendLine()
	h.Release()
	if h.L1I != nil || h.L1D != nil || h.L2 != nil {
		t.Fatal("Hierarchy.Release left a level attached")
	}
	got := []*Cache{MustNew(cfg), MustNew(cfg), MustNew(cfg), MustNew(cfg)}
	want := &Cache{
		cfg: cfg, ways: make([]way, cfg.Lines()), touched: make([]uint64, (cfg.Lines()+63)/64),
		lineShift: 6, setMask: uint64(cfg.Sets() - 1), setShift: 6, nsets: cfg.Sets(), nways: cfg.Ways,
	}
	for i, c := range got {
		if !reflect.DeepEqual(c, want) {
			t.Errorf("New #%d after Release differs from a fresh cache", i)
		}
	}
}
