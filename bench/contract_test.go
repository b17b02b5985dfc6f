package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNamesValid(t *testing.T) {
	seen := make(map[string]bool)
	names := []string{}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, s := range append(append([]metricSpec{}, e2eSpecs...), layerSpecs...) {
		names = append(names, s.name)
		if !validUnit.MatchString(s.unit) {
			t.Errorf("%s: invalid unit %q", s.name, s.unit)
		}
	}
	for _, ref := range fidelityRefs {
		names = append(names, ref.name)
	}
	for _, n := range names {
		if !validName.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

// BENCHMARK.json and the code name the same workloads and metrics, with
// the same units and bounds, in both directions.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && (b.Workloads[i].Name != workloads[i].name || b.Workloads[i].Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, b.Workloads[i], workloads[i].name, workloads[i].why)
		}
	}
	e2e := make(map[string]metricSpec)
	for _, s := range e2eSpecs {
		e2e[s.name] = s
	}
	for _, m := range b.EndToEnd {
		s, ok := e2e[m.Name]
		if !ok {
			t.Errorf("BENCHMARK.json end-to-end metric %s is not emitted", m.Name)
			continue
		}
		delete(e2e, m.Name)
		if m.Unit != s.unit || m.Bound != s.bound || m.Better != "lower" {
			t.Errorf("%s: BENCHMARK.json has %s/%v/%s, the code %s/%v/lower", m.Name, m.Unit, m.Bound, m.Better, s.unit, s.bound)
		}
	}
	for n := range e2e {
		t.Errorf("end-to-end metric %s is missing from BENCHMARK.json", n)
	}
	layer := make(map[string]metricSpec)
	for _, s := range layerSpecs {
		layer[s.name] = s
	}
	for _, m := range b.PerLayer {
		s, ok := layer[m.Name]
		if !ok {
			t.Errorf("BENCHMARK.json per-layer metric %s is not emitted", m.Name)
			continue
		}
		delete(layer, m.Name)
		if m.Unit != s.unit {
			t.Errorf("%s: BENCHMARK.json unit %s, the code %s", m.Name, m.Unit, s.unit)
		}
	}
	for n := range layer {
		t.Errorf("per-layer metric %s is missing from BENCHMARK.json", n)
	}
}

func TestResultLineCarriesExactlyTheContractMetrics(t *testing.T) {
	values := map[string]float64{}
	for _, s := range append(append([]metricSpec{}, e2eSpecs...), layerSpecs...) {
		values[s.name] = 1
	}
	wr := &workloadResult{E2E: &e2eResult{Wall: []float64{1}, CPU: []float64{1}, RSS: []float64{1}, Setup: []float64{1}, tally: tally{Attempted: 2}},
		Trace: &traceResult{traceOutput: traceOutput{Metrics: values, tally: tally{Attempted: 1}}}}
	wr.summarise()
	for trace, specs := range map[int][]metricSpec{0: e2eSpecs, 1: layerSpecs} {
		l := wr.line(trace)
		if !l.Correct || l.Attempted != 3 || len(l.Metrics) != len(specs) {
			t.Errorf("trace %d: line = %+v, want correct with %d metrics", trace, l, len(specs))
		}
		for _, s := range specs {
			if l.Metrics[s.name].Unit != s.unit {
				t.Errorf("trace %d: %s has unit %q", trace, s.name, l.Metrics[s.name].Unit)
			}
		}
	}
	delete(values, "emu.step_ns_per_inst")
	wr.summarise()
	if wr.line(1).Correct {
		t.Error("a line with a metric missing is correct")
	}
}
