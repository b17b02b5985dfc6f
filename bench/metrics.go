package main

import (
	"fmt"
	"math"
)

// metricSpec names one metric the benchmark reports. BENCHMARK.json
// lists the same names, units and bounds; a test holds the two equal.
type metricSpec struct {
	name, unit string
	// bound is the share of the parent's median an end-to-end metric
	// may worsen by before a change counts as a regression.
	bound float64
}

// e2eSpecs are the end-to-end metrics, all lower-is-better, measured
// with tracing off.
var e2eSpecs = []metricSpec{
	{"wall_s", "s", 0.25},
	{"cpu_s", "s", 0.25},
	{"peak_rss_mb", "MB", 0.25},
	{"setup_s", "s", 0.25},
}

// layerSpecs are the per-layer metrics of the traced run.
var layerSpecs = append([]metricSpec{
	{name: "workload.build_s", unit: "s"},
	{name: "workload.programs", unit: "count"},
	{name: "isa.predecode_s", unit: "s"},
	{name: "engine.entry_s", unit: "s"},
	{name: "engine.jobs", unit: "count"},
	{name: "engine.runs", unit: "count"},
	{name: "engine.hits", unit: "count"},
	{name: "engine.hit_ratio", unit: "ratio"},
	{name: "engine.sim_minst_per_s", unit: "Minst/s"},
	{name: "core.new_system_ms", unit: "ms"},
	{name: "core.run_minst_per_s", unit: "Minst/s"},
	{name: "core.check_ns_per_inst", unit: "ns"},
	{name: "core.check_step_ns_per_inst", unit: "ns"},
	{name: "spec.record_s", unit: "s"},
	{name: "spec.replay_s", unit: "s"},
	{name: "spec.replay_speedup", unit: "x"},
	{name: "spec.streams_recorded", unit: "count"},
	{name: "spec.streams_replayed", unit: "count"},
	{name: "spec.micro_replayed", unit: "count"},
	{name: "spec.aborts", unit: "count"},
	{name: "emu.step_ns_per_inst", unit: "ns"},
	{name: "emu.block_ns_per_inst", unit: "ns"},
	{name: "cpu.main_ns_per_inst", unit: "ns"},
	{name: "cpu.checker_ns_per_inst", unit: "ns"},
	{name: "cpu.main_ipc", unit: "inst/cycle"},
	{name: "cachesim.access_ns", unit: "ns"},
	{name: "cachesim.l1d_miss_ratio", unit: "ratio"},
	{name: "cachesim.llc_miss_ratio", unit: "ratio"},
	{name: "cachesim.new_llc_us", unit: "us"},
	{name: "branch.ns_per_branch", unit: "ns"},
	{name: "branch.mispredict_ratio", unit: "ratio"},
	{name: "noc.latency_ns_per_call", unit: "ns"},
	{name: "dram.access_ns_per_call", unit: "ns"},
	{name: "dram.row_hit_ratio", unit: "ratio"},
	{name: "verify.ms_per_program", unit: "ms"},
	{name: "fuzz.screen_ms_per_seed", unit: "ms"},
	{name: "fuzz.differential_ms_per_seed", unit: "ms"},
	{name: "fuzz.screen_reject_ratio", unit: "ratio"},
	{name: "fault.ms_per_trial", unit: "ms"},
	{name: "fault.detected_ratio", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "prof.attributed_share", unit: "share"},
}, profSpecs()...)

func profSpecs() []metricSpec {
	specs := make([]metricSpec, len(layers))
	for i, l := range layers {
		specs[i] = metricSpec{name: "prof." + l.name + ".self_share", unit: "share"}
	}
	return specs
}

// fidelityUnit is the unit of the fid.* metrics, percentage points.
const fidelityUnit = "pp"

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches units to every metric specs name, and reports the
// ones values lacks or holds no number for.
func withUnits(specs []metricSpec, values map[string]float64) (map[string]valueUnit, []string) {
	out := make(map[string]valueUnit, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, fmt.Sprintf("metric %s: no value", s.name))
			continue
		}
		out[s.name] = valueUnit{v, s.unit}
	}
	return out, missing
}
