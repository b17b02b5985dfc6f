package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

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

// fingerprint hashes the whole Config except Spec and Trace, so a new
// field is part of the run key by construction. Spec (the
// functional-stream cache, core/spec.go) is wall-clock only and Trace is
// observability only: neither changes a simulated outcome, and hashing
// their pointers would split the cache per instance. Layout is the one
// pointer that reaches the rendering; it is dereferenced so two
// independently built but equal configurations (e.g. two
// core.DefaultConfig calls) collide, which is what makes cross-figure
// deduplication work. fmt prints map fields (cpu.Config.FUs) in sorted
// key order, so the rendering is deterministic. The interceptor funcs
// render as nil: configs that set them never reach keyFor (cacheable).
func fingerprint(cfg *core.Config) string {
	c := *cfg
	c.Spec, c.Trace, c.Layout = nil, nil, nil
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", c)
	if cfg.Layout != nil {
		fmt.Fprintf(h, "layout=%+v\n", *cfg.Layout)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workloadsKey renders the workload list's identity; it is the one
// formatter of workload keys. A SPEC program is named by its benchmark
// (nil Prog: submitted by name, or turned into that form by
// Engine.byName), so every run of one benchmark window shares a key
// whichever program build serves it. Any other program is identified by
// pointer, which the cache entry keeps alive so the address cannot be
// recycled while the key is live.
func workloadsKey(ws []core.Workload) string {
	out := ""
	for i := range ws {
		w := &ws[i]
		id := fmt.Sprintf("%p", w.Prog)
		if w.Prog == nil {
			id = "spec:" + w.Name
		}
		out += fmt.Sprintf("%s|%s|%d|%d\n", w.Name, id, w.MaxInsts, w.WarmupInsts)
	}
	return out
}

func keyFor(cfg *core.Config, ws []core.Workload) runKey {
	return runKey{cfg: fingerprint(cfg), ws: workloadsKey(ws)}
}
