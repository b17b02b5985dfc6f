package experiments

import (
	"bytes"
	"fmt"
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

// TestFingerprintSeparatesConfigs checks that the run key tells apart
// every configuration that can simulate differently: perturbing any
// leaf field reachable from core.Config (through structs, slice
// elements, map values and *Layout) changes the fingerprint. Spec and
// Trace, which never change a simulated outcome, are left out here and
// checked by TestFingerprintExcludesObservability. A new Config field
// is covered without touching this test. The interceptor funcs are
// skipped: configs that set them are never cached.
func TestFingerprintSeparatesConfigs(t *testing.T) {
	base := func() core.Config {
		cfg := core.DefaultConfig(a510Spec(4, 2.0))
		cfg.LaneMains = []core.LaneMain{{CPU: cpu.A510(), FreqGHz: 2.0}}
		return cfg
	}
	ref := base()
	want := fingerprint(&ref)
	b := base()
	if fingerprint(&b) != want {
		t.Fatal("identical configs fingerprint differently")
	}

	// walk calls leaf on every settable leaf field below v, named by its
	// path. Map values are not addressable, so each is walked in a copy
	// that is stored back afterwards.
	var walk func(v reflect.Value, path string, leaf func(string, reflect.Value))
	walk = func(v reflect.Value, path string, leaf func(string, reflect.Value)) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), leaf)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), leaf)
			}
		case reflect.Map:
			for _, k := range v.MapKeys() {
				e := reflect.New(v.Type().Elem()).Elem()
				e.Set(v.MapIndex(k))
				walk(e, fmt.Sprintf("%s[%v]", path, k), leaf)
				v.SetMapIndex(k, e)
			}
		case reflect.Pointer:
			if path == "Spec" || path == "Trace" || v.IsNil() {
				return
			}
			walk(v.Elem(), path, leaf)
		case reflect.Func:
		default:
			leaf(path, v)
		}
	}
	var paths []string
	walk(reflect.ValueOf(&ref).Elem(), "", func(p string, _ reflect.Value) { paths = append(paths, p) })
	if len(paths) < 100 {
		t.Fatalf("walk reached only %d leaf fields", len(paths))
	}
	for _, p := range paths {
		cfg := base()
		walk(reflect.ValueOf(&cfg).Elem(), "", func(q string, v reflect.Value) {
			if q != p {
				return
			}
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				v.SetFloat(v.Float() + 1)
			case reflect.String:
				v.SetString(v.String() + "'")
			default:
				t.Fatalf("%s: no perturbation for kind %s", p, v.Kind())
			}
		})
		if fingerprint(&cfg) == want {
			t.Errorf("perturbing %s did not change the fingerprint", p)
		}
	}
	if workloadsKey(specRun("mcf", 1000, 500)) == workloadsKey(specRun("mcf", 1000, 501)) {
		t.Error("warmup change did not change the spec run key")
	}
}
