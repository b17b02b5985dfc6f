package cachesim

// Hierarchy bundles a core's private caches. Accesses that miss the
// private levels escalate to the Beyond callback, which the system wires
// to the shared LLC + NoC + DRAM model and which reports its latency in
// nanoseconds (frequency-independent, since the mesh and DRAM do not
// scale with the core's DVFS state).
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache

	// Beyond is invoked for accesses missing L2. It returns the latency
	// in nanoseconds. A nil Beyond charges DefaultBeyondNS.
	Beyond func(addr uint64, write, fetch bool) float64
}

// DefaultBeyondNS is the flat LLC+DRAM latency charged when no system-
// level model is attached.
const DefaultBeyondNS = 30.0

// AccessResult describes where an access hit and what it costs.
type AccessResult struct {
	// Level is 1, 2 or 3 (3 meaning beyond-L2: LLC or memory).
	Level int
	// Cycles is the core-clock cycle cost from the private levels.
	Cycles int
	// BeyondNS is the frequency-independent portion (zero on private
	// hits).
	BeyondNS float64
}

// TotalCycles converts the result to core cycles at freqGHz.
func (r AccessResult) TotalCycles(freqGHz float64) float64 {
	return float64(r.Cycles) + float64(r.BeyondNS*freqGHz)
}

// Data performs a data-side access.
func (h *Hierarchy) Data(addr uint64, write bool) AccessResult {
	if h.L1D.Access(addr, write) {
		return AccessResult{Level: 1, Cycles: h.L1D.cfg.HitCycles}
	}
	cycles := h.L1D.cfg.HitCycles
	if h.L2 != nil {
		if h.L2.Access(addr, write) {
			return AccessResult{Level: 2, Cycles: cycles + h.L2.cfg.HitCycles}
		}
		cycles += h.L2.cfg.HitCycles
	}
	return AccessResult{Level: 3, Cycles: cycles, BeyondNS: h.beyond(addr, write, false)}
}

// Fetch performs an instruction-side access.
func (h *Hierarchy) Fetch(addr uint64) AccessResult {
	if h.L1I.Access(addr, false) {
		return AccessResult{Level: 1, Cycles: h.L1I.cfg.HitCycles}
	}
	cycles := h.L1I.cfg.HitCycles
	if h.L2 != nil {
		if h.L2.Access(addr, false) {
			return AccessResult{Level: 2, Cycles: cycles + h.L2.cfg.HitCycles}
		}
		cycles += h.L2.cfg.HitCycles
	}
	return AccessResult{Level: 3, Cycles: cycles, BeyondNS: h.beyond(addr, false, true)}
}

// DataAtLevel reproduces the cost of a data access whose hit level was
// recorded on an earlier identical run, without consulting or mutating
// the private tag state. Recorded level-3 accesses still invoke Beyond,
// so the shared LLC/NoC/DRAM model observes the same traffic in the
// same order as the original run.
func (h *Hierarchy) DataAtLevel(addr uint64, write bool, level int) AccessResult {
	cycles := h.L1D.cfg.HitCycles
	if level == 1 {
		return AccessResult{Level: 1, Cycles: cycles}
	}
	if h.L2 != nil {
		cycles += h.L2.cfg.HitCycles
	}
	if level == 2 {
		return AccessResult{Level: 2, Cycles: cycles}
	}
	return AccessResult{Level: 3, Cycles: cycles, BeyondNS: h.beyond(addr, write, false)}
}

// FetchAtLevel is DataAtLevel for the instruction side.
func (h *Hierarchy) FetchAtLevel(addr uint64, level int) AccessResult {
	cycles := h.L1I.cfg.HitCycles
	if level == 1 {
		return AccessResult{Level: 1, Cycles: cycles}
	}
	if h.L2 != nil {
		cycles += h.L2.cfg.HitCycles
	}
	if level == 2 {
		return AccessResult{Level: 2, Cycles: cycles}
	}
	return AccessResult{Level: 3, Cycles: cycles, BeyondNS: h.beyond(addr, false, true)}
}

func (h *Hierarchy) beyond(addr uint64, write, fetch bool) float64 {
	if h.Beyond == nil {
		return DefaultBeyondNS
	}
	return h.Beyond(addr, write, fetch)
}

// InvalidateAll clears every private level.
func (h *Hierarchy) InvalidateAll() {
	h.L1I.InvalidateAll()
	h.L1D.InvalidateAll()
	if h.L2 != nil {
		h.L2.InvalidateAll()
	}
}

// Release releases every private level (Cache.Release) and detaches it,
// so a use after release fails loudly instead of writing into a cache
// that a later New handed to another owner.
func (h *Hierarchy) Release() {
	for _, c := range [...]*Cache{h.L1I, h.L1D, h.L2} {
		if c != nil {
			c.Release()
		}
	}
	h.L1I, h.L1D, h.L2 = nil, nil, nil
}
