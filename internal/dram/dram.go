// Package dram models a DDR4-2400 8x8 memory system at the fidelity the
// experiments need: a fixed device latency plus a bandwidth-dependent
// queueing term, with row-buffer locality approximated by address-stream
// reuse distance.
package dram

// Config describes the memory system.
type Config struct {
	// BaseNS is the idle (unloaded) access latency in nanoseconds.
	BaseNS float64
	// RowHitNS is the latency for accesses hitting an open row.
	RowHitNS float64
	// PeakGBs is the peak bandwidth in GB/s (DDR4-2400 x64: 19.2 GB/s).
	PeakGBs float64
	// Banks is the number of banks used for row-buffer tracking.
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
}

// DDR4_2400 returns the configuration matching the paper's Table I memory
// ("DDR4 2400 8x8").
func DDR4_2400() Config {
	return Config{
		BaseNS:   46, // tRCD+tCAS+tRP class latency
		RowHitNS: 18,
		PeakGBs:  19.2,
		Banks:    16,
		RowBytes: 8192,
	}
}

// Model tracks open rows and offered load.
type Model struct {
	cfg      Config
	openRows []uint64

	// Accesses and RowHits accumulate for reporting.
	Accesses uint64
	RowHits  uint64
}

// New builds a memory model.
func New(cfg Config) *Model {
	return &Model{cfg: cfg, openRows: make([]uint64, cfg.Banks)}
}

// AccessNS returns the latency of one 64-byte access given the current
// offered bandwidth utilisation (0..1), which adds an M/M/1-style
// queueing term as the bus saturates.
func (m *Model) AccessNS(addr uint64, utilisation float64) float64 {
	m.Accesses++
	bank := (addr / uint64(m.cfg.RowBytes)) % uint64(m.cfg.Banks)
	row := addr / uint64(m.cfg.RowBytes) / uint64(m.cfg.Banks)
	lat := m.cfg.BaseNS
	if m.openRows[bank] == row+1 {
		m.RowHits++
		lat = m.cfg.RowHitNS
	}
	m.openRows[bank] = row + 1

	if utilisation > 0.95 {
		utilisation = 0.95
	}
	if utilisation > 0 {
		// Waiting time grows as rho/(1-rho) service times.
		service := 64.0 / m.cfg.PeakGBs // ns to transfer one line
		lat += float64(utilisation / (1 - utilisation) * service)
	}
	return lat
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (m *Model) RowHitRate() float64 {
	if m.Accesses == 0 {
		return 0
	}
	return float64(m.RowHits) / float64(m.Accesses)
}
