// The run engine: every figure and study in this package drives its
// (configuration × benchmark) simulation matrix through a shared bounded
// worker pool fronted by a content-addressed result cache. Entry points
// submit their full matrix up front and assemble tables from completed
// futures in deterministic label/benchmark order, so output is
// byte-identical at any worker count, while independent simulations
// saturate the available cores and repeated runs (the no-checking
// baselines every figure needs, the DVFS points both fig. 6 and the
// power study sweep) are computed exactly once per process.
//
// Program lifetime: the engine owns the SPEC programs its runs name
// (specRun). A program is built inside the pool slot of the first run
// that needs it and is freed, together with every stream the SpecCache
// recorded over it, as soon as no submitted run and no running study
// names it. A submission that will execute holds its programs from
// Submit until its simulation returns; a study that hands programs to
// code outside Submit (Campaign, the divergent and strategies studies)
// holds them for its whole duration. Figures submit all of one
// benchmark's runs before the next benchmark's (submitMatrix), so each
// program is freed early in a sweep. Reclamation is left to the
// runtime's pacer: forcing a collection after each drop lowers the
// peak further but costs more CPU time than it is worth.
//
// Concurrency safety: core.Run builds a private System — mesh, LLC,
// DRAM model, per-lane cores and machines — per call, so concurrent
// independent runs never share mutable state. The shared inputs are
// read-only: *isa.Program (each machine's Memory reads the data segment
// in place and copies a page only when a run writes it; instruction
// slices are never written),
// cpu.Config values (FU maps are only read), and *noc.Layout (only
// read). The fault campaign engine (internal/fault) established this
// fan-out pattern; the engine here extends it to every experiment.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"paraverser/internal/core"
	"paraverser/internal/isa"
	"paraverser/internal/obs"
	"paraverser/internal/workload/spec"
)

// Engine fans independent simulation runs out over a bounded worker pool
// and memoizes their results. The zero value is not usable; call
// NewEngine.
type Engine struct {
	sem chan struct{}

	// spec is the engine's shared functional-stream cache (core/spec.go):
	// runs that share a functional stream — the same program and window
	// at different frequencies, checker pools, or table positions —
	// replay each other's recorded segments instead of re-emulating them.
	// Attached only to cacheable submissions; results are byte-identical
	// with or without it.
	spec *core.SpecCache

	// progMu guards progs, the live SPEC programs by name, and their
	// hold counts (hold, release).
	progMu sync.Mutex
	progs  map[string]*progEntry

	mu    sync.Mutex
	cache map[runKey]*runCall
	// uncached holds the calls that bypass the cache (fault-injection
	// runs), so Gather can still merge their metric shards.
	uncached []*runCall
	// external holds shards recorded from simulations that bypassed the
	// engine entirely (the fault campaign drives fault.RunCampaign
	// directly), so the metrics export covers the whole suite.
	external []*obs.RunMetrics

	runs   atomic.Int64 // simulations actually executed
	hits   atomic.Int64 // submissions served by cache or singleflight
	shares atomic.Int64 // the hits that joined a still-in-flight run
	jobs   atomic.Int64 // submissions issued
	done   atomic.Int64 // submissions resolved
	segs   atomic.Int64 // segments closed across executed runs
}

// NewEngine returns an engine whose pool admits workers concurrent
// simulations (<= 0 selects GOMAXPROCS).
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		sem:   make(chan struct{}, workers),
		cache: make(map[runKey]*runCall),
		spec:  core.NewSpecCache(),
		progs: make(map[string]*progEntry),
	}
}

// SpecStats samples the engine's SpecCache counters.
func (e *Engine) SpecStats() obs.SpecSnapshot { return e.spec.Stats() }

// Workers returns the pool bound.
func (e *Engine) Workers() int { return cap(e.sem) }

// Runs returns how many simulations the engine has executed (cache
// misses); Hits how many submissions were deduplicated against an
// in-flight or completed identical run.
func (e *Engine) Runs() int64 { return e.runs.Load() }

// Hits returns the number of deduplicated submissions.
func (e *Engine) Hits() int64 { return e.hits.Load() }

// Shares returns how many of the hits joined a run that was still in
// flight rather than already completed. Unlike Runs and Hits this split
// depends on scheduling, so it feeds the live progress display only and
// stays out of the deterministic metrics export.
func (e *Engine) Shares() int64 { return e.shares.Load() }

// ProgressStats samples the engine's live counters for the progress
// reporter.
func (e *Engine) ProgressStats() obs.ProgressStats {
	return obs.ProgressStats{
		JobsTotal: e.jobs.Load(),
		JobsDone:  e.done.Load(),
		Runs:      e.runs.Load(),
		Hits:      e.hits.Load() - e.shares.Load(),
		Shares:    e.shares.Load(),
		Segments:  e.segs.Load(),
	}
}

// Gather merges the metric shards of every completed run the engine has
// executed into one aggregate. Shard merging is commutative integer
// addition (obs.RunMetrics), so the aggregate is byte-identical for the
// same submission set at any worker count.
func (e *Engine) Gather() *obs.RunMetrics {
	e.mu.Lock()
	calls := make([]*runCall, 0, len(e.cache)+len(e.uncached))
	for _, c := range e.cache {
		//paralint:allow(collection order is erased by the commutative Merge below)
		calls = append(calls, c)
	}
	calls = append(calls, e.uncached...)
	ext := append([]*obs.RunMetrics(nil), e.external...)
	e.mu.Unlock()

	m := obs.NewRunMetrics()
	for _, sh := range ext {
		m.Merge(sh)
	}
	for _, c := range calls {
		select {
		case <-c.done:
			if c.err == nil && c.res != nil && c.res.Metrics != nil {
				m.Merge(c.res.Metrics)
			}
		default: // still in flight; its shard is not readable yet
		}
	}
	return m
}

// RecordMetrics folds an externally produced shard (e.g. a fault
// campaign's merged trial metrics) into the engine's aggregate.
func (e *Engine) RecordMetrics(m *obs.RunMetrics) {
	if m == nil {
		return
	}
	e.mu.Lock()
	e.external = append(e.external, m)
	e.mu.Unlock()
}

// MetricsSnapshot exports the engine's deterministic metrics: the merged
// per-run shards plus the run-cache counters. Runs and Hits are functions
// of the submission multiset alone (executed runs = unique cacheable
// keys + uncacheable submissions), so the snapshot is byte-identical at
// any -j setting; the scheduling-dependent in-flight share split is
// deliberately excluded.
func (e *Engine) MetricsSnapshot() *obs.Snapshot {
	var b obs.SnapshotBuilder
	e.Gather().AddTo(&b, "paraverser_")
	b.Counter("paraverser_runcache_runs_total", "simulations executed (cache misses)", uint64(e.Runs()))
	b.Counter("paraverser_runcache_hits_total", "submissions deduplicated against an identical run", uint64(e.Hits()))
	return b.Snapshot()
}

// runCall is one scheduled simulation; futures returned for equal keys
// share it (singleflight), so concurrent requests for the same run wait
// on one execution.
type runCall struct {
	done chan struct{}
	res  *core.Result
	err  error
	// ws is the submitted workload list. By-name workloads (nil Prog)
	// stay by name, so a finished run pins no SPEC program; a
	// pointer-identified program (GAP, PARSEC, fuzz) stays pinned for the
	// cache's lifetime so its address can never be recycled while its
	// key is live.
	ws []core.Workload
}

// Future is a handle to a submitted run.
type Future struct{ c *runCall }

// Wait blocks until the run completes and returns its result. The
// Result is shared between all futures with the same key: callers must
// treat it as read-only.
func (f *Future) Wait() (*core.Result, error) {
	<-f.c.done
	return f.c.res, f.c.err
}

// Submit schedules one simulation of ws under cfg and returns its
// future. A workload with a nil Prog names a SPEC benchmark (specRun):
// its program is built inside the run's pool slot, so first-time
// working-set generation parallelises with other runs. A workload whose
// Prog is the engine's live program of that name (a study's, holdSpec)
// is submitted by name too, so both forms share one cache key.
// Cacheable submissions (no fault interceptor) are deduplicated
// content-addressed: an identical earlier submission — completed or
// still in flight — is shared rather than re-run. Uncacheable
// submissions always execute privately but still occupy pool slots, so
// fault-injection matrices parallelise under the same bound. A
// submission that will execute holds its SPEC programs from here until
// its simulation returns (see the package comment); taking the hold now
// rather than in the pool slot keeps a program alive between two queued
// runs that need it.
func (e *Engine) Submit(cfg core.Config, ws []core.Workload) *Future {
	applyTrace(&cfg)
	e.applySpec(&cfg)
	e.jobs.Add(1)
	ws = e.byName(ws)
	c := &runCall{done: make(chan struct{}), ws: ws}
	if cacheable(&cfg) {
		key := keyFor(&cfg, ws)
		e.mu.Lock()
		if old, ok := e.cache[key]; ok {
			e.mu.Unlock()
			e.noteHit(old)
			return &Future{c: old}
		}
		e.cache[key] = c
		e.mu.Unlock()
	} else {
		e.mu.Lock()
		e.uncached = append(e.uncached, c)
		e.mu.Unlock()
	}
	e.start(cfg, c)
	return &Future{c: c}
}

// specRun is the workload list of one run of the SPEC benchmark bench
// over the given window, submitted by name (see Submit).
func specRun(bench string, insts, warmup int64) []core.Workload {
	return []core.Workload{{Name: bench, MaxInsts: insts, WarmupInsts: warmup}}
}

// noteHit records one deduplicated submission for the live counters,
// distinguishing completed-cache hits from in-flight singleflight
// shares. A deduplicated submission is resolved the moment it attaches
// to its run — the remaining work belongs to the run's own job — so it
// counts as done immediately; that keeps JobsDone == JobsTotal exact
// when the batch drains, with no per-share goroutine racing the final
// progress render.
func (e *Engine) noteHit(c *runCall) {
	e.hits.Add(1)
	select {
	case <-c.done:
	default:
		e.shares.Add(1)
	}
	e.done.Add(1)
}

// start holds c's SPEC programs and runs c inside a pool slot: it
// builds the programs of workloads submitted by name, simulates, and
// releases the holds before the run's future resolves.
func (e *Engine) start(cfg core.Config, c *runCall) {
	held := make([]*progEntry, len(c.ws))
	for i := range c.ws {
		if c.ws[i].Prog == nil {
			held[i] = e.hold(c.ws[i].Name)
		}
	}
	go func() {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		ws, err := e.resolve(c.ws, held)
		if err != nil {
			c.err = err
		} else {
			e.runs.Add(1)
			c.res, c.err = core.Run(cfg, ws)
		}
		for i, pe := range held {
			if pe != nil {
				e.release(c.ws[i].Name)
			}
		}
		if c.err == nil && c.res.Metrics != nil {
			e.segs.Add(int64(c.res.Metrics.Segments))
		}
		e.done.Add(1)
		close(c.done)
	}()
}

// resolve returns a copy of ws with the program of every workload
// submitted by name (nil Prog) built through its held entry. It copies
// because submissions may share one slice; the copy dies with the run.
func (e *Engine) resolve(ws []core.Workload, held []*progEntry) ([]core.Workload, error) {
	out := append([]core.Workload(nil), ws...)
	for i := range out {
		if held[i] == nil {
			continue
		}
		prog, err := e.build(held[i], out[i].Name)
		if err != nil {
			return nil, err
		}
		out[i].Prog = prog
	}
	return out, nil
}

// progEntry is one live SPEC program: built once, by whichever holder
// needs it first, and shared by every holder until the last release.
type progEntry struct {
	once  sync.Once
	holds int // guarded by Engine.progMu
	// prog and err are written once, under Engine.progMu, so byName can
	// compare against prog while another holder is still building it.
	prog *isa.Program
	err  error
}

// hold takes one hold on the SPEC program name, adding an unbuilt entry
// if none is live.
func (e *Engine) hold(name string) *progEntry {
	e.progMu.Lock()
	defer e.progMu.Unlock()
	pe := e.progs[name]
	if pe == nil {
		pe = &progEntry{}
		e.progs[name] = pe
	}
	pe.holds++
	return pe
}

// build returns pe's program, generating it on first call; concurrent
// holders wait for one generation.
func (e *Engine) build(pe *progEntry, name string) (*isa.Program, error) {
	pe.once.Do(func() {
		var prog *isa.Program
		p, err := spec.ByName(name)
		if err == nil {
			prog, err = p.Build(1 << 40)
		}
		e.progMu.Lock()
		pe.prog, pe.err = prog, err
		e.progMu.Unlock()
	})
	return pe.prog, pe.err
}

// release gives back one hold on name. The last release deletes the
// entry and drops what the SpecCache recorded over the program, so both
// become garbage; a later hold builds the program again, byte-identical
// (spec.Profile.Build is deterministic).
func (e *Engine) release(name string) {
	e.progMu.Lock()
	pe := e.progs[name]
	pe.holds--
	if pe.holds > 0 {
		e.progMu.Unlock()
		return
	}
	delete(e.progs, name)
	prog := pe.prog
	e.progMu.Unlock()
	if prog != nil {
		e.spec.DropProgram(prog)
	}
}

// holdSpec holds the named SPEC programs and builds them, for a study
// that hands them to code outside Submit (Campaign, divergentWorkloads).
// The caller calls release once the study is done; on error nothing
// stays held.
func (e *Engine) holdSpec(names []string) (progs []*isa.Program, release func(), err error) {
	held := make([]*progEntry, len(names))
	for i, name := range names {
		held[i] = e.hold(name)
	}
	release = func() {
		for _, name := range names {
			e.release(name)
		}
	}
	progs = make([]*isa.Program, len(names))
	for i, pe := range held {
		if progs[i], err = e.build(pe, names[i]); err != nil {
			release()
			return nil, nil, err
		}
	}
	return progs, release, nil
}

// byName returns ws with every workload whose Prog is the engine's live
// program of that name turned into a by-name workload (nil Prog). It
// copies only when it changes something, since submissions may share
// one slice.
func (e *Engine) byName(ws []core.Workload) []core.Workload {
	e.progMu.Lock()
	defer e.progMu.Unlock()
	var out []core.Workload
	for i := range ws {
		if ws[i].Prog == nil {
			continue
		}
		if pe := e.progs[ws[i].Name]; pe == nil || pe.prog != ws[i].Prog {
			continue
		}
		if out == nil {
			out = append([]core.Workload(nil), ws...)
		}
		out[i].Prog = nil
	}
	if out == nil {
		return ws
	}
	return out
}

// defaultEngine is the process-wide engine the exported entry points
// share: `paraverser all` runs every figure over one cache, so the
// common baselines are simulated once for the whole suite.
var (
	engineMu  sync.RWMutex
	defEngine = NewEngine(0)
)

func defaultEngine() *Engine {
	engineMu.RLock()
	defer engineMu.RUnlock()
	return defEngine
}

// SetWorkers replaces the shared engine with a fresh one bounded at n
// concurrent simulations (<= 0 selects GOMAXPROCS). Call it before
// running experiments: the previous engine's cache is discarded.
func SetWorkers(n int) {
	engineMu.Lock()
	defer engineMu.Unlock()
	defEngine = NewEngine(n)
}

// SetTimeShards is a no-op kept for callers built against the
// parallel-in-time engine. Each run is now a single goroutine that
// records its stream from the live segment loop, so there is no
// speculation depth left to set.
//
// Deprecated: there is nothing to configure; callers can drop the call.
func SetTimeShards(int) {}

// applySpec attaches the engine's SpecCache to a cacheable submission.
// Fault-injection submissions (fig. 8's trials) are left without it:
// they bypass the run cache, and fault.RunCampaign is where trials
// share a primed cache of their own.
func (e *Engine) applySpec(cfg *core.Config) {
	if cacheable(cfg) && cfg.Spec == nil {
		cfg.Spec = e.spec
	}
}

// traceDest, when set, is installed on every submitted configuration
// that carries no trace of its own (-trace on the CLI). Tracing never
// influences simulated outcomes and is excluded from the cache
// fingerprint, so installing it cannot split or poison the cache — but
// note that a submission deduplicated against an already-executed run
// emits no events, since only executed runs trace.
var traceDest atomic.Pointer[obs.Trace]

// SetTrace installs a shared segment-trace ring for all subsequent
// submissions (nil disables).
func SetTrace(t *obs.Trace) { traceDest.Store(t) }

// MetricsSnapshot exports the shared engine's deterministic metrics
// (`paraverser -metrics-out`).
func MetricsSnapshot() *obs.Snapshot { return defaultEngine().MetricsSnapshot() }

// Progress samples the shared engine's live counters for the CLI's
// progress reporter.
func Progress() obs.ProgressStats { return defaultEngine().ProgressStats() }

func applyTrace(cfg *core.Config) {
	if cfg.Trace == nil {
		cfg.Trace = traceDest.Load()
	}
}
