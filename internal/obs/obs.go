//paralint:deterministic

// Package obs is the run-engine observability layer: deterministic
// metrics (counters, gauges, histograms), a bounded segment-trace ring
// that dumps Chrome trace_event JSON, and a live progress reporter.
//
// The design splits metrics by who writes them and when:
//
//   - Per-run simulation metrics (RunMetrics) are plain integer fields
//     written only at protocol-defined points of the deterministic
//     orchestrator loop (segment close, dispatch, join, recovery
//     events). One RunMetrics shard belongs to one System; shards merge
//     at collect time. Integer-only arithmetic makes the merge
//     commutative, so the aggregate is byte-identical no matter how
//     many workers raced over the run matrix or in which order their
//     results landed.
//   - Process-wide live counters (Counter) are atomics: the experiment
//     engine's run-cache statistics, the progress reporter's feed.
//     Scheduling-dependent counters (e.g. the in-flight singleflight
//     share split) are surfaced live but deliberately kept out of the
//     deterministic export.
//
// Nothing in this package is touched on the per-instruction hot path:
// the only per-instruction metric in the system (per-class FU issue
// counts) is a dense array increment inside cpu.Core, exported here at
// collect time.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a process-wide atomic counter for live statistics (the
// experiment engine's feed). Per-run deterministic metrics use plain
// RunMetrics fields instead.
type Counter struct{ v atomic.Uint64 }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Hist is a fixed-bound integer histogram. Bounds are inclusive upper
// bounds ("le" semantics); an implicit +Inf bucket catches the rest.
// Not safe for concurrent use: per-run histograms are written only by
// the orchestrator goroutine, and merged shard by shard at collect.
type Hist struct {
	Bounds []uint64 // ascending upper bounds
	Counts []uint64 // len(Bounds)+1; last is the +Inf bucket
	Sum    uint64
	N      uint64
}

// NewHist builds a histogram over the given ascending bucket bounds.
func NewHist(bounds ...uint64) Hist {
	return Hist{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample. Zero-allocation: the bucket walk is a
// linear scan over a handful of bounds.
func (h *Hist) Observe(v uint64) {
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Sum += v
	h.N++
}

// Merge accumulates another histogram with identical bounds.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Sum += o.Sum
	h.N += o.N
}

// Mean returns the average observed value (0 for an empty histogram).
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Quantile returns the upper bound of the bucket holding the q-th
// quantile sample (0 <= q <= 1), or the last finite bound for samples
// in the +Inf bucket. A coarse rank statistic, good enough for summary
// tables.
func (h *Hist) Quantile(q float64) uint64 {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.N-1))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// String renders the histogram deterministically (for invariance
// tests and debugging).
func (h *Hist) String() string {
	return fmt.Sprintf("{n=%d sum=%d counts=%v}", h.N, h.Sum, h.Counts)
}

// Bucket is one exported histogram bucket (non-cumulative count).
type Bucket struct {
	LE uint64 `json:"le"` // inclusive upper bound; the +Inf bucket is omitted from Buckets and derivable from Count
	N  uint64 `json:"n"`
}

// Metric is one exported sample in a Snapshot.
type Metric struct {
	Name string `json:"name"`
	// Labels is a pre-rendered Prometheus label body, e.g.
	// `class="int-alu",core="main"` (empty for unlabelled metrics).
	Labels string `json:"labels,omitempty"`
	Kind   string `json:"kind"` // "counter", "gauge" or "histogram"
	// Value carries counter values (integers, never lossy).
	Value uint64 `json:"value,omitempty"`
	// Gauge carries gauge values.
	Gauge float64 `json:"gauge,omitempty"`
	// Histogram payload.
	Sum     uint64   `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	Help    string   `json:"help,omitempty"`
}

// key orders metrics in the snapshot.
func (m *Metric) key() string { return m.Name + "{" + m.Labels + "}" }

// Snapshot is a point-in-time export of a metric set, sorted by name
// so two snapshots of the same deterministic state serialize to
// identical bytes.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// SnapshotBuilder accumulates metrics for a Snapshot. The zero value
// is ready to use.
type SnapshotBuilder struct {
	metrics []Metric
}

// Counter adds a counter metric.
func (b *SnapshotBuilder) Counter(name, help string, v uint64) {
	b.metrics = append(b.metrics, Metric{Name: name, Kind: "counter", Value: v, Help: help})
}

// LabeledCounter adds a counter metric with a pre-rendered label body.
func (b *SnapshotBuilder) LabeledCounter(name, labels, help string, v uint64) {
	b.metrics = append(b.metrics, Metric{Name: name, Labels: labels, Kind: "counter", Value: v, Help: help})
}

// Gauge adds a gauge metric.
func (b *SnapshotBuilder) Gauge(name, help string, v float64) {
	b.metrics = append(b.metrics, Metric{Name: name, Kind: "gauge", Gauge: v, Help: help})
}

// Hist adds a histogram metric.
func (b *SnapshotBuilder) Hist(name, help string, h *Hist) {
	m := Metric{Name: name, Kind: "histogram", Sum: h.Sum, Count: h.N, Help: help}
	for i, bound := range h.Bounds {
		m.Buckets = append(m.Buckets, Bucket{LE: bound, N: h.Counts[i]})
	}
	b.metrics = append(b.metrics, m)
}

// Snapshot finalizes the builder: metrics sorted by name+labels.
func (b *SnapshotBuilder) Snapshot() *Snapshot {
	out := &Snapshot{Metrics: append([]Metric(nil), b.metrics...)}
	sort.Slice(out.Metrics, func(i, j int) bool {
		return out.Metrics[i].key() < out.Metrics[j].key()
	})
	return out
}

// Get returns the metric with the given name (first label set wins).
func (s *Snapshot) Get(name string) (Metric, bool) {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return s.Metrics[i], true
		}
	}
	return Metric{}, false
}

// CounterValue returns a counter's value, 0 when absent.
func (s *Snapshot) CounterValue(name string) uint64 {
	m, ok := s.Get(name)
	if !ok {
		return 0
	}
	return m.Value
}

// WriteJSON writes the snapshot as deterministic JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshotJSON parses a snapshot written by WriteJSON. It is
// strict: the input must be exactly one JSON object carrying at least
// one metric — trailing data or an empty/missing metric set means the
// file is not a metrics snapshot (truncated write, wrong file), and
// silently accepting it would let downstream cross-checks "pass"
// against a vacuous snapshot.
func ReadSnapshotJSON(r io.Reader) (*Snapshot, error) {
	dec := json.NewDecoder(r)
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: parsing metrics JSON: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("obs: trailing data after metrics JSON")
	}
	if len(s.Metrics) == 0 {
		return nil, fmt.Errorf("obs: metrics JSON contains no metrics")
	}
	return &s, nil
}

// ReadSnapshotFile parses a snapshot file written by WriteSnapshotFile.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshotJSON(f)
}

// WriteSnapshotFile writes the snapshot as JSON to path.
func (s *Snapshot) WriteSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// promName renders a metric name with its optional label body.
func promName(m *Metric, suffix, extraLabel string) string {
	labels := m.Labels
	if extraLabel != "" {
		if labels != "" {
			labels += ","
		}
		labels += extraLabel
	}
	if labels == "" {
		return m.Name + suffix
	}
	return m.Name + suffix + "{" + labels + "}"
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format. Histograms emit cumulative _bucket series plus _sum and
// _count, the way a scrape endpoint would.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	lastHeader := ""
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != lastHeader {
			lastHeader = m.Name
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
		}
		switch m.Kind {
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s %v\n", promName(m, "", ""), m.Gauge); err != nil {
				return err
			}
		case "histogram":
			var cum uint64
			for _, b := range m.Buckets {
				cum += b.N
				if _, err := fmt.Fprintf(w, "%s %d\n",
					promName(m, "_bucket", fmt.Sprintf(`le="%d"`, b.LE)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promName(m, "_bucket", `le="+Inf"`), m.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n%s %d\n",
				promName(m, "_sum", ""), m.Sum, promName(m, "_count", ""), m.Count); err != nil {
				return err
			}
		default: // counter
			if _, err := fmt.Fprintf(w, "%s %d\n", promName(m, "", ""), m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary renders a human-oriented table of the snapshot for the
// `paraverser metrics` subcommand.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	wName := len("metric")
	for i := range s.Metrics {
		if n := len(s.Metrics[i].key()); n > wName {
			wName = n
		}
	}
	fmt.Fprintf(&b, "%-*s  %s\n%s  %s\n", wName, "metric", "value",
		strings.Repeat("-", wName), strings.Repeat("-", len("value")))
	for i := range s.Metrics {
		m := &s.Metrics[i]
		name := m.Name
		if m.Labels != "" {
			name += "{" + m.Labels + "}"
		}
		switch m.Kind {
		case "gauge":
			fmt.Fprintf(&b, "%-*s  %.4f\n", wName, name, m.Gauge)
		case "histogram":
			h := Hist{Sum: m.Sum, N: m.Count}
			for _, bk := range m.Buckets {
				h.Bounds = append(h.Bounds, bk.LE)
				h.Counts = append(h.Counts, bk.N)
			}
			var inf uint64
			for _, c := range h.Counts {
				inf += c
			}
			h.Counts = append(h.Counts, m.Count-inf)
			fmt.Fprintf(&b, "%-*s  n=%d mean=%.1f p50<=%d p95<=%d\n",
				wName, name, h.N, h.Mean(), h.Quantile(0.50), h.Quantile(0.95))
		default:
			fmt.Fprintf(&b, "%-*s  %d\n", wName, name, m.Value)
		}
	}
	return b.String()
}
