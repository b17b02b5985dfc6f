package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"paraverser/internal/core"
)

// runKey identifies one simulation run for the engine's content-addressed
// cache: a fingerprint of the system configuration plus the identity and
// measurement window of every workload. Two Submit calls with equal keys
// are guaranteed to describe the same deterministic simulation, so the
// engine computes the run once and shares the Result.
type runKey struct {
	cfg string // config fingerprint (sha256 hex)
	ws  string // workload identities: name|progID|insts|warmup per entry
}

// cacheable reports whether a configuration's runs may be memoized. Runs
// with a fault interceptor on either side carry per-run mutable state
// (fire counters on the injector), so every submission must execute
// privately.
func cacheable(cfg *core.Config) bool {
	return cfg.CheckerInterceptor == nil && cfg.MainInterceptor == nil
}

// fingerprint hashes every semantically relevant field of a Config.
// Pointer fields are dereferenced so two independently built but equal
// configurations (e.g. two core.DefaultConfig calls) collide, which is
// what makes cross-figure deduplication work. fmt prints map fields in
// sorted key order, so the rendering is deterministic.
//
// fingerprintedConfigFields records, for every field of core.Config,
// whether writeConfig hashes it (true) or deliberately excludes it
// (false, with the reason below). TestFingerprintCoversConfig reflects
// over core.Config and fails on any field missing from this table, so a
// new field cannot silently reuse stale cache entries: it must be added
// here — and to writeConfig if it can change simulated outcomes. The
// paralint fingerprint analyzer enforces the same property at lint time.
//
//paralint:fingerprint(paraverser/internal/core.Config)
var fingerprintedConfigFields = map[string]bool{
	"Main":                   true,
	"MainFreqGHz":            true,
	"LaneMains":              true,
	"Checkers":               true,
	"Mode":                   true,
	"HashMode":               true,
	"Strategy":               true,
	"EagerWake":              true,
	"TimeoutInsts":           true,
	"DedicatedLSLBytes":      true,
	"CheckpointStallCycles":  true,
	"CheckpointDrains":       true,
	"InterruptIntervalInsts": true,
	"SamplePeriod":           true,
	// Spec attaches the functional-stream cache (core/spec.go), which
	// guarantees byte-identical results with or without it: a pure
	// wall-clock knob, so hashing it would split the cache for no
	// semantic reason.
	"Spec":               false,
	"NoC":                true,
	"Layout":             true,
	"LSLTrafficOnNoC":    true,
	"L3":                 true,
	"L3HitNS":            true,
	"DRAM":               true,
	"CheckerInterceptor": true,
	"MainInterceptor":    true,
	"Recovery":           true,
	"Seed":               true,
	// Trace is observability only (segment trace ring): it never changes
	// simulated outcomes, and hashing the pointer would needlessly split
	// the cache per ring instance.
	"Trace": false,
}

// fingerprintedCPUFields is the same accounting for cpu.Config, which
// writeConfig hashes wholesale via %+v (Main, LaneMains, Checkers): every
// listed field rides along in that rendering. A new cpu.Config field
// fails TestFingerprintCoversConfig until it is listed here; mark it
// false only if it genuinely cannot affect simulated timing. Enforced at
// lint time by the paralint fingerprint analyzer alongside the table above.
//
//paralint:fingerprint(paraverser/internal/cpu.Config)
var fingerprintedCPUFields = map[string]bool{
	"Name":          true,
	"OoO":           true,
	"FetchWidth":    true,
	"IssueWidth":    true,
	"CommitWidth":   true,
	"FrontendDepth": true,
	"ROB":           true,
	"IQ":            true,
	"LQ":            true,
	"SQ":            true,
	"FUs":           true,
	"L1I":           true,
	"L1D":           true,
	"L2":            true,
	"BigPredictor":  true,
	"NominalGHz":    true,
	"AreaMM2":       true,
}

// fingerprintedNestedFields extends the accounting to every struct type
// from the core and cpu packages reachable through a hashed field of the
// tables above. These structs are rendered wholesale via %+v, so every
// exported field rides along in the hash automatically — but a field
// added to a nested struct must still be explicitly classified here,
// otherwise TestFingerprintCoversConfig fails: before this table, a new
// nested struct (or a new field on one) could slip into or out of the
// fingerprint without a decision. Keys are "pkg.Type"; cpu.Config keeps
// its dedicated, paralint-enforced table above. Struct types from other
// packages (noc, cachesim, dram, obs) render all exported fields through
// %+v by construction and carry no policy exclusions, so the walk stops
// at the core/cpu package boundary.
var fingerprintedNestedFields = map[string]map[string]bool{
	"core.LaneMain":         {"CPU": true, "FreqGHz": true},
	"core.CheckerSpec":      {"CPU": true, "FreqGHz": true, "Count": true},
	"core.RecoveryConfig":   {"Enabled": true, "MaxReplays": true, "ForensicRounds": true, "Quarantine": true},
	"core.QuarantinePolicy": {"CooldownNS": true, "ProbationChecks": true, "MaxOffenses": true},
	"cpu.FU":                {"Count": true, "Latency": true, "InitInterval": true},
}

func fingerprint(cfg *core.Config) string {
	h := sha256.New()
	writeConfig(h, cfg)
	return hex.EncodeToString(h.Sum(nil))
}

func writeConfig(w io.Writer, cfg *core.Config) {
	// 1-4: main core, frequency, per-lane overrides, checker pool.
	fmt.Fprintf(w, "main=%+v|%v\n", cfg.Main, cfg.MainFreqGHz)
	fmt.Fprintf(w, "lanes=%+v\n", cfg.LaneMains)
	fmt.Fprintf(w, "checkers=%+v\n", cfg.Checkers)
	// 5-10: operating mode and checkpointing behaviour.
	fmt.Fprintf(w, "mode=%v hash=%v eager=%v timeout=%v dedlsl=%v ckpt=%v/%v\n",
		cfg.Mode, cfg.HashMode, cfg.EagerWake, cfg.TimeoutInsts,
		cfg.DedicatedLSLBytes, cfg.CheckpointStallCycles, cfg.CheckpointDrains)
	// The verification strategy hashes in resolved form so an explicit
	// StrategyLockstep and the Auto default (which resolves to it) share
	// one cache entry — they are the same simulation.
	fmt.Fprintf(w, "strategy=%v\n", cfg.ResolvedStrategy())
	// 11-12: interrupt and sampling policy.
	fmt.Fprintf(w, "irq=%v sample=%v\n", cfg.InterruptIntervalInsts, cfg.SamplePeriod)
	// 13-15: mesh, layout (dereferenced), LSL traffic accounting.
	fmt.Fprintf(w, "noc=%+v lsltraffic=%v\n", cfg.NoC, cfg.LSLTrafficOnNoC)
	if cfg.Layout != nil {
		fmt.Fprintf(w, "layout=%+v\n", *cfg.Layout)
	}
	// 16-18: shared LLC and memory.
	fmt.Fprintf(w, "l3=%+v hit=%v dram=%+v\n", cfg.L3, cfg.L3HitNS, cfg.DRAM)
	// 19: interceptor presence (non-nil configs are never cached, but the
	// bits keep the fingerprint total and honest).
	fmt.Fprintf(w, "intc=%v mainintc=%v\n", cfg.CheckerInterceptor != nil, cfg.MainInterceptor != nil)
	// 20-22: recovery policy and workload seed. Recovery.Quarantine rides
	// along inside %+v.
	fmt.Fprintf(w, "recovery=%+v seed=%v\n", cfg.Recovery, cfg.Seed)
	// Spec and Trace are deliberately NOT hashed; see the
	// fingerprintedConfigFields table for the rationale.
}

// workloadsKey renders the workload list's identity; it is the one
// formatter of workload keys. SPEC programs are canonicalised by name,
// whether submitted by name (nil Prog, see specRun) or with the program
// specProg built (one immutable *isa.Program per name per process), so
// both forms of one run share a cache entry. Any other program is
// identified by pointer, which the cache entry keeps alive so the
// address cannot be recycled while the key is live.
func workloadsKey(ws []core.Workload) string {
	out := ""
	for i := range ws {
		w := &ws[i]
		id := fmt.Sprintf("%p", w.Prog)
		if w.Prog == nil {
			id = "spec:" + w.Name
		} else if p, ok := progCache.Load(w.Name); ok && p.(*progEntry).prog == w.Prog {
			id = "spec:" + w.Name
		}
		out += fmt.Sprintf("%s|%s|%d|%d\n", w.Name, id, w.MaxInsts, w.WarmupInsts)
	}
	return out
}

func keyFor(cfg *core.Config, ws []core.Workload) runKey {
	return runKey{cfg: fingerprint(cfg), ws: workloadsKey(ws)}
}
