package experiments

import (
	"bytes"
	"path"
	"reflect"
	"strings"
	"sync"
	"testing"

	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/fault"
	"paraverser/internal/obs"
)

// faultProbe is a fixed fault for cacheability tests.
func faultProbe() fault.Fault {
	return fault.Campaign(99, 1, fuCounts())[0]
}

// tinyScale is the smallest scale that still exercises the full fig. 6/7
// matrices (baselines, every configuration, the DVFS sweep).
func tinyScale() Scale {
	return Scale{
		Insts:         40_000,
		Warmup:        20_000,
		Benchmarks:    []string{"exchange2", "mcf"},
		GAPScale:      8,
		GAPEdgeFactor: 6,
		ParsecScale:   200,
		ED2PFreqs:     []float64{1.4, 2.0},
	}
}

// TestWorkerCountDeterminism asserts the engine's core guarantee: the
// rendered tables AND the exported metrics snapshot are byte-identical
// no matter how many workers race over the run matrix (-j).
func TestWorkerCountDeterminism(t *testing.T) {
	sc := tinyScale()
	type tables struct{ fig6, fig7slow, fig7cov, metrics string }
	var want tables
	for i, workers := range []int{1, 2, 8} {
		e := NewEngine(workers)
		r6, err := fig6(e, sc)
		if err != nil {
			t.Fatalf("fig6 at %d workers: %v", workers, err)
		}
		slow, cov, err := fig7(e, sc)
		if err != nil {
			t.Fatalf("fig7 at %d workers: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := e.MetricsSnapshot().WriteJSON(&buf); err != nil {
			t.Fatalf("metrics snapshot at %d workers: %v", workers, err)
		}
		got := tables{r6.Table(), slow.Table(), cov.Table(), buf.String()}
		if i == 0 {
			want = got
			continue
		}
		if got.fig6 != want.fig6 {
			t.Errorf("fig6 table differs between 1 and %d workers:\n%s\n--- vs ---\n%s", workers, got.fig6, want.fig6)
		}
		if got.fig7slow != want.fig7slow {
			t.Errorf("fig7 slowdown table differs between 1 and %d workers", workers)
		}
		if got.fig7cov != want.fig7cov {
			t.Errorf("fig7 coverage table differs between 1 and %d workers", workers)
		}
		if got.metrics != want.metrics {
			t.Errorf("exported metrics differ between 1 and %d workers:\n%s\n--- vs ---\n%s",
				workers, got.metrics, want.metrics)
		}
	}
}

// TestRunCacheMemoizes asserts a second identical figure performs zero
// new simulations: every run is served from the engine's result cache.
func TestRunCacheMemoizes(t *testing.T) {
	sc := tinyScale()
	e := NewEngine(2)
	if _, err := fig6(e, sc); err != nil {
		t.Fatal(err)
	}
	runsAfterFirst := e.Runs()
	if runsAfterFirst == 0 {
		t.Fatal("first fig6 performed no simulations")
	}
	if _, err := fig6(e, sc); err != nil {
		t.Fatal(err)
	}
	if e.Runs() != runsAfterFirst {
		t.Errorf("second fig6 ran %d new simulations, want 0", e.Runs()-runsAfterFirst)
	}
	if e.Hits() == 0 {
		t.Error("second fig6 recorded no cache hits")
	}
}

// TestFig6SubmitsDVFSOnce asserts fig. 6 submits each DVFS point of its
// ED²P sweep once: one benchmark is the baseline, five configurations
// and two DVFS points, eight jobs, and the only hit is the 2.0 GHz
// point, which is the 4xA510@2.0 configuration.
func TestFig6SubmitsDVFSOnce(t *testing.T) {
	sc := tinyScale()
	sc.Benchmarks = []string{"exchange2"}
	sc.ED2PFreqs = []float64{1.4, 2.0}
	e := NewEngine(2)
	if _, err := fig6(e, sc); err != nil {
		t.Fatal(err)
	}
	if jobs := e.ProgressStats().JobsTotal; jobs != 8 || e.Runs() != 7 || e.Hits() != 1 {
		t.Errorf("fig6: %d jobs, %d runs, %d hits; want 8 jobs, 7 runs, 1 hit", jobs, e.Runs(), e.Hits())
	}
	ws := specRun("exchange2", sc.Insts, sc.Warmup)
	a510 := core.DefaultConfig(a510Spec(4, 2.0))
	dvfs := ed2pCfg(2.0)
	if keyFor(&dvfs, ws) != keyFor(&a510, ws) {
		t.Error("the 2.0 GHz DVFS point and 4xA510@2.0 have different run keys")
	}
}

// TestSubmitSingleflight asserts identical concurrent submissions share
// one simulation.
func TestSubmitSingleflight(t *testing.T) {
	e := NewEngine(4)
	cfg := baselineCfg()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Submit(cfg, specRun("exchange2", 20_000, 10_000)).Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := e.Runs(); got != 1 {
		t.Errorf("8 identical submissions performed %d simulations, want 1", got)
	}
}

// TestSpecFormsShareRun asserts a SPEC benchmark submitted by name
// (specRun) and the same benchmark submitted with its specProg program
// are one run: one key format, one cache entry, one simulation.
func TestSpecFormsShareRun(t *testing.T) {
	e := NewEngine(2)
	cfg := baselineCfg()
	byName := e.Submit(cfg, specRun("exchange2", 20_000, 10_000))
	prog, err := specProg("exchange2")
	if err != nil {
		t.Fatal(err)
	}
	withProg := e.Submit(cfg, []core.Workload{{Name: "exchange2", Prog: prog, MaxInsts: 20_000, WarmupInsts: 10_000}})
	for _, f := range []*Future{byName, withProg} {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Runs() != 1 || e.Hits() != 1 {
		t.Errorf("two forms of one SPEC run: %d runs, %d hits; want 1 run, 1 hit", e.Runs(), e.Hits())
	}
}

// TestFaultRunsNotCached asserts interceptor configs bypass the cache:
// their injector state is private per run.
func TestFaultRunsNotCached(t *testing.T) {
	e := NewEngine(2)
	cfg := core.DefaultConfig(x2Spec(1, 3.0))
	if cacheable(&cfg) != true {
		t.Fatal("clean config reported uncacheable")
	}
	fcfg, _, err := withFault(cfg, faultProbe())
	if err != nil {
		t.Fatal(err)
	}
	if cacheable(&fcfg) {
		t.Error("interceptor config reported cacheable")
	}
	for i := 0; i < 2; i++ {
		f, _, err := submitFault(e, cfg, "exchange2", faultProbe(), 30_000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Runs(); got != 2 {
		t.Errorf("2 fault submissions performed %d simulations, want 2 (uncached)", got)
	}
}

// TestFingerprintCoversConfig pins the fingerprint to the shapes of
// core.Config and cpu.Config: a new field on either must be explicitly
// classified (hashed or excluded with a reason) before the tests pass
// again. Without this, adding a field that changes simulated outcomes
// would silently alias distinct configurations onto stale cache
// entries.
//
// The check is recursive: every struct type from the core or cpu
// packages reachable through a hashed field (unwrapping slices, arrays,
// maps and pointers) needs its own policy table
// (fingerprintedNestedFields), bidirectionally checked the same way.
// The earlier, top-level-only version of this test let a field added to
// a nested struct — or a whole new nested struct — ride into or out of
// the %+v rendering with no decision recorded.
func TestFingerprintCoversConfig(t *testing.T) {
	// nestedPolicy resolves the policy table for a struct type from the
	// core or cpu packages; nil, false for types the walk stops at
	// (other packages render every exported field via %+v and carry no
	// exclusions).
	nestedPolicy := func(typ reflect.Type) (map[string]bool, bool) {
		pkg := typ.PkgPath()
		if !strings.HasSuffix(pkg, "internal/core") && !strings.HasSuffix(pkg, "internal/cpu") {
			return nil, false
		}
		if typ == reflect.TypeOf(cpu.Config{}) {
			return fingerprintedCPUFields, true
		}
		key := path.Base(pkg) + "." + typ.Name()
		policy, ok := fingerprintedNestedFields[key]
		if !ok {
			t.Errorf("nested struct %s is reachable through a hashed fingerprint field but has no policy table: add %q to fingerprintedNestedFields", key, key)
		}
		return policy, ok
	}
	// structElem unwraps containers to the struct type they carry, if
	// any.
	var structElem func(typ reflect.Type) (reflect.Type, bool)
	structElem = func(typ reflect.Type) (reflect.Type, bool) {
		switch typ.Kind() {
		case reflect.Struct:
			return typ, true
		case reflect.Slice, reflect.Array, reflect.Ptr, reflect.Map:
			return structElem(typ.Elem())
		}
		return nil, false
	}
	visited := make(map[reflect.Type]bool)
	var check func(typ reflect.Type, policy map[string]bool)
	check = func(typ reflect.Type, policy map[string]bool) {
		if visited[typ] {
			return
		}
		visited[typ] = true
		seen := make(map[string]bool, typ.NumField())
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Field(i)
			name := field.Name
			seen[name] = true
			hashed, ok := policy[name]
			if !ok {
				t.Errorf("%s.%s is not classified in the fingerprint policy: "+
					"add it to the table (and to writeConfig if it can change simulated outcomes)",
					typ.Name(), name)
				continue
			}
			if !hashed {
				continue // excluded fields are not part of the rendering
			}
			if elem, ok := structElem(field.Type); ok {
				if nested, ok := nestedPolicy(elem); ok {
					check(elem, nested)
				}
			}
		}
		for name := range policy {
			if !seen[name] {
				t.Errorf("fingerprint policy lists %s.%s, which no longer exists", typ.Name(), name)
			}
		}
	}
	check(reflect.TypeOf(core.Config{}), fingerprintedConfigFields)
	check(reflect.TypeOf(cpu.Config{}), fingerprintedCPUFields)
	// Every nested table must have been reached: a stale entry here
	// means the field that once led to it was removed or re-typed.
	for key := range fingerprintedNestedFields {
		reached := false
		for typ := range visited {
			if path.Base(typ.PkgPath())+"."+typ.Name() == key {
				reached = true
				break
			}
		}
		if !reached {
			t.Errorf("fingerprintedNestedFields lists %s, which is no longer reachable from core.Config or cpu.Config", key)
		}
	}
}

// TestFingerprintExcludesObservability asserts the deliberately excluded
// fields really do not split the cache: configs differing only in
// Spec or Trace must share one fingerprint.
func TestFingerprintExcludesObservability(t *testing.T) {
	a := core.DefaultConfig(a510Spec(4, 2.0))
	b := a
	b.Spec = core.NewSpecCache()
	b.Trace = obs.NewTrace(16)
	if fingerprint(&a) != fingerprint(&b) {
		t.Error("Spec/Trace changed the fingerprint; they must not split the cache")
	}
}

// TestFingerprintSeparatesConfigs spot-checks that distinct
// configurations and workload windows get distinct cache keys.
func TestFingerprintSeparatesConfigs(t *testing.T) {
	a := core.DefaultConfig(a510Spec(4, 2.0))
	b := core.DefaultConfig(a510Spec(4, 2.0))
	if fingerprint(&a) != fingerprint(&b) {
		t.Error("identical configs fingerprint differently")
	}
	b.HashMode = true
	if fingerprint(&a) == fingerprint(&b) {
		t.Error("HashMode toggle did not change the fingerprint")
	}
	c := core.DefaultConfig(a510Spec(2, 2.0))
	if fingerprint(&a) == fingerprint(&c) {
		t.Error("checker-count change did not change the fingerprint")
	}
	if workloadsKey(specRun("mcf", 1000, 500)) == workloadsKey(specRun("mcf", 1000, 501)) {
		t.Error("warmup change did not change the spec run key")
	}
}
