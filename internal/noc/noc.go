// Package noc models the on-chip network: a 2D bidirectional mesh with XY
// routing and an M/M/1 queueing model per link, following the paper's own
// methodology ("we model NoC latencies by feeding the gem5 network
// parameters into an MM1 queueing network model of a 2D mesh",
// section VI). Load-store-log pushes from main cores to checker cores load
// the links they traverse; the resulting queueing delay on LLC-demand
// routes is back-propagated into the cores' LLC access latency.
package noc

import "fmt"

// Config describes the mesh fabric.
type Config struct {
	Name      string
	Rows      int
	Cols      int
	WidthBits int
	FreqGHz   float64
	// RouterCycles is the per-hop router pipeline latency in NoC cycles.
	RouterCycles int
}

// Fast returns the default CMN-700-style mesh of Table I (256-bit, 2GHz).
func Fast() Config {
	return Config{Name: "fast", Rows: 4, Cols: 4, WidthBits: 256, FreqGHz: 2.0, RouterCycles: 2}
}

// Slow returns the underprovisioned "slowNoC" of Table I (128-bit,
// 1.5GHz) used in the section VII-D sensitivity study.
func Slow() Config {
	return Config{Name: "slowNoC", Rows: 4, Cols: 4, WidthBits: 128, FreqGHz: 1.5, RouterCycles: 2}
}

// widthBytes returns the link width in bytes.
func (c Config) widthBytes() float64 { return float64(c.WidthBits) / 8 }

// LinkGBs returns one link's bandwidth in bytes per nanosecond (= GB/s).
func (c Config) LinkGBs() float64 { return c.widthBytes() * c.FreqGHz }

// Coord addresses a mesh crosspoint.
type Coord struct{ Row, Col int }

// Outgoing link directions from a crosspoint.
const (
	dirEast  = iota // +Col
	dirWest         // -Col
	dirSouth        // +Row
	dirNorth        // -Row
	numDirs
)

// Mesh is the fabric with its current offered load.
type Mesh struct {
	cfg Config
	// loadGBs is the offered load per directed link in bytes/ns,
	// indexed densely by linkIndex — numDirs slots per crosspoint, one
	// per outgoing direction — so the latency queries on the
	// per-segment timing path hash nothing and allocate nothing.
	loadGBs []float64
	linkGBs float64
	// scratch backs route's returned slice. A mesh belongs to one
	// System and is only queried from its orchestrator goroutine
	// (pipelined checks snapshot their latencies at dispatch), so a
	// single reusable buffer is safe.
	scratch []int32
}

// New builds an empty mesh.
func New(cfg Config) (*Mesh, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 || cfg.WidthBits <= 0 || cfg.FreqGHz <= 0 {
		return nil, fmt.Errorf("noc: invalid config %+v", cfg)
	}
	return &Mesh{
		cfg:     cfg,
		loadGBs: make([]float64, cfg.Rows*cfg.Cols*numDirs),
		linkGBs: cfg.LinkGBs(),
	}, nil
}

// linkIndex addresses the directed link leaving (row, col) in dir.
func (m *Mesh) linkIndex(row, col, dir int) int32 {
	return int32((row*m.cfg.Cols+col)*numDirs + dir)
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Mesh {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// ResetLoad clears all offered load.
func (m *Mesh) ResetLoad() {
	clear(m.loadGBs)
}

// route returns the XY route (X first) as directed link indices. The
// slice is backed by a buffer reused across calls — valid until the
// next route/AddFlow/Latency query on this mesh.
func (m *Mesh) route(from, to Coord) []int32 {
	links := m.scratch[:0]
	cur := from
	for cur.Col != to.Col {
		if to.Col > cur.Col {
			links = append(links, m.linkIndex(cur.Row, cur.Col, dirEast))
			cur.Col++
		} else {
			links = append(links, m.linkIndex(cur.Row, cur.Col, dirWest))
			cur.Col--
		}
	}
	for cur.Row != to.Row {
		if to.Row > cur.Row {
			links = append(links, m.linkIndex(cur.Row, cur.Col, dirSouth))
			cur.Row++
		} else {
			links = append(links, m.linkIndex(cur.Row, cur.Col, dirNorth))
			cur.Row--
		}
	}
	m.scratch = links
	return links
}

// Hops returns the hop count between two crosspoints.
func (m *Mesh) Hops(from, to Coord) int {
	return abs(from.Row-to.Row) + abs(from.Col-to.Col)
}

// AddFlow offers bytesPerNS (GB/s) of steady traffic along the XY route
// from→to.
func (m *Mesh) AddFlow(from, to Coord, bytesPerNS float64) {
	for _, l := range m.route(from, to) {
		m.loadGBs[l] += bytesPerNS
	}
}

// utilisation returns rho for one link, capped just under saturation so
// the M/M/1 term stays finite (overload shows up as a very large delay).
func (m *Mesh) utilisation(l int32) float64 {
	rho := m.loadGBs[l] / m.linkGBs
	if rho > 0.98 {
		rho = 0.98
	}
	return rho
}

// MaxUtilisation returns the highest per-link utilisation (for reporting
// saturation in the sensitivity study).
func (m *Mesh) MaxUtilisation() float64 {
	var max float64
	for l := range m.loadGBs {
		if u := m.utilisation(int32(l)); u > max {
			max = u
		}
	}
	return max
}

// LatencyNS returns the end-to-end latency of one message of msgBytes
// under the current offered load: per-hop router latency, serialisation
// on each link, and the M/M/1 waiting time rho/(1-rho)·s per link.
func (m *Mesh) LatencyNS(from, to Coord, msgBytes int) float64 {
	links := m.route(from, to)
	routerNS := float64(m.cfg.RouterCycles) / m.cfg.FreqGHz
	serviceNS := float64(msgBytes) / m.cfg.LinkGBs()
	total := routerNS // ejection router
	for _, l := range links {
		rho := m.utilisation(l)
		wait := float64(rho / (1 - rho) * serviceNS)
		total += routerNS + serviceNS + wait
	}
	return total
}

// QueueingNS returns only the load-dependent part of LatencyNS: the
// extra delay attributable to contention. This is what gets
// back-propagated into LLC access latency.
func (m *Mesh) QueueingNS(from, to Coord, msgBytes int) float64 {
	serviceNS := float64(msgBytes) / m.cfg.LinkGBs()
	var total float64
	for _, l := range m.route(from, to) {
		rho := m.utilisation(l)
		total += float64(rho / (1 - rho) * serviceNS)
	}
	return total
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
