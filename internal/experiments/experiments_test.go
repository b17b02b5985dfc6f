package experiments

import (
	"strings"
	"testing"
)

// miniScale keeps experiment tests fast while still exercising every code
// path.
func miniScale() Scale {
	return Scale{
		Insts:           80_000,
		Warmup:          80_000,
		Benchmarks:      []string{"exchange2", "bwaves", "mcf"},
		FaultTrials:     4,
		FaultHorizon:    150_000,
		FaultBenchmarks: []string{"deepsjeng"},
		GAPScale:        8,
		GAPEdgeFactor:   6,
		ParsecScale:     200,
		ED2PFreqs:       []float64{1.4, 2.0},
	}
}

func TestFig6ShapeInvariants(t *testing.T) {
	r, err := Fig6(miniScale())
	if err != nil {
		t.Fatal(err)
	}
	// Paper-shape invariants rather than absolute numbers:
	// the homogeneous checker keeps up (low single digits)...
	if gm := r.Geomean("1xX2@3.0"); gm < 0 || gm > 6 {
		t.Errorf("homogeneous geomean %.2f%%, want low single digits", gm)
	}
	// ...2xX2@1.5 is comparable to homogeneous...
	if gm := r.Geomean("2xX2@1.5"); gm > 8 {
		t.Errorf("2xX2@1.5 geomean %.2f%% too high", gm)
	}
	// ...DSN18's 12 dedicated cores are insufficient (the paper's 9%)...
	dsn := r.Geomean("DSN18-12")
	if dsn < 4 {
		t.Errorf("DSN18 geomean %.2f%%, want clearly elevated", dsn)
	}
	// ...and ParaDox's 16 keep slowdown low at high area cost.
	pd := r.Geomean("ParaDox-16")
	if pd >= dsn {
		t.Errorf("ParaDox (%.2f%%) not better than DSN18 (%.2f%%)", pd, dsn)
	}
	if !strings.Contains(r.Table(), "GEOMEAN") {
		t.Error("table missing geomean row")
	}
}

func TestFig7ShapeInvariants(t *testing.T) {
	slow, cov, err := Fig7(miniScale())
	if err != nil {
		t.Fatal(err)
	}
	// Opportunistic mode never slows much: overheads are NoC-bound.
	for _, cfgName := range slow.Order {
		if gm := slow.Geomean(cfgName); gm > 5 {
			t.Errorf("%s: opportunistic geomean %.2f%% too high", cfgName, gm)
		}
	}
	// Coverage ordering: faster checkers cover more.
	for _, bench := range cov.Benchmarks {
		lo := cov.Values["4xA510@1.6"][bench]
		hi := cov.Values["4xA510@2.0"][bench]
		if hi < lo-5 {
			t.Errorf("%s: coverage fell with frequency: %.1f @1.6 vs %.1f @2.0", bench, lo, hi)
		}
	}
	// Homogeneous full-speed checker covers nearly everything.
	if gm := cov.Geomean("1xX2@3.0"); gm < 90 {
		t.Errorf("homogeneous coverage %.1f%%, want >= 90%%", gm)
	}
}

func TestFig8ShapeInvariants(t *testing.T) {
	sc := miniScale()
	r, err := Fig8(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.FullDetectedPct <= 0 || r.FullDetectedPct > 100 {
		t.Errorf("full-coverage detection %.1f%% out of range", r.FullDetectedPct)
	}
	if r.FullDetectedPct+r.MaskedPct > 100.01 {
		t.Error("detected + masked exceeds 100%")
	}
	// The biggest checker configuration must cover at least as much as
	// the smallest.
	for _, bench := range r.Coverage.Benchmarks {
		small := r.Coverage.Values["1xA510@0.5"][bench]
		big := r.Coverage.Values["2xA510@2.0"][bench]
		if big < small-1e-9 {
			t.Errorf("%s: coverage fell with more checker capacity (%.1f -> %.1f)", bench, small, big)
		}
	}
}

func TestFig9ShapeInvariants(t *testing.T) {
	r, err := Fig9(miniScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 12 { // 6 GAP + 6 PARSEC
		t.Fatalf("fig9 covered %d workloads, want 12", len(r.Benchmarks))
	}
	// More checkers never makes full coverage much slower.
	for _, w := range r.Benchmarks {
		one := r.Values["1xA510"][w]
		four := r.Values["4xA510"][w]
		if four > one+3 {
			t.Errorf("%s: slowdown grew with checkers: %.2f%% @1 -> %.2f%% @4", w, one, four)
		}
	}
	// GAP is memory-bound: with 2 checkers the geomean over GAP rows
	// should be modest (the paper's "even 2 A510s suffice").
	var gapTwo []float64
	for _, w := range r.Benchmarks {
		if strings.HasPrefix(w, "gap.") {
			gapTwo = append(gapTwo, r.Values["2xA510"][w])
		}
	}
	var sum float64
	for _, v := range gapTwo {
		sum += v
	}
	if mean := sum / float64(len(gapTwo)); mean > 15 {
		t.Errorf("GAP mean slowdown with 2 A510s %.2f%%, want modest", mean)
	}
}

func TestFig10ShapeInvariants(t *testing.T) {
	sc := miniScale()
	r, err := Fig10(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 5 {
		t.Fatalf("fig10 covered %d mixes, want 5", len(r.Benchmarks))
	}
	for _, mix := range r.Benchmarks {
		with := r.Values["4xA510@2.0"][mix]
		without := r.Values["4xA510@2.0-noLSLnoc"][mix]
		if without > with+1 {
			t.Errorf("%s: removing LSL NoC traffic increased slowdown (%.2f -> %.2f)", mix, with, without)
		}
	}
}

func TestFig11ShapeInvariants(t *testing.T) {
	r, err := Fig11(miniScale())
	if err != nil {
		t.Fatal(err)
	}
	fast := r.Geomean("fastNoC")
	slowG := r.Geomean("slowNoC")
	hash := r.Geomean("slowNoC+hash")
	if slowG < fast {
		t.Errorf("slow NoC (%.2f%%) not worse than fast (%.2f%%)", slowG, fast)
	}
	// Hash Mode rescues the slow NoC: it must close most of the gap.
	if hash > fast+(slowG-fast)*0.7+0.5 {
		t.Errorf("hash mode %.2f%% did not close the slowNoC gap (fast %.2f%%, slow %.2f%%)",
			hash, fast, slowG)
	}
}

func TestPowerShapeInvariants(t *testing.T) {
	r, err := Power(miniScale())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := make(map[string]PowerRow, len(r.Rows))
	for _, row := range r.Rows {
		byLabel[row.Label] = row
	}
	homog := byLabel["1xX2@3.0 (DCLS-comparable)"].EnergyOverhead
	little := byLabel["4xA510@2.0"].EnergyOverhead
	ed2p := byLabel["4xA510 ED2P-minimal DVFS"].EnergyOverhead
	halved := byLabel["2xX2@1.5"].EnergyOverhead
	dedicated := byLabel["ParaDox 16xA35 (dedicated)"].EnergyOverhead
	// Paper ordering: homogeneous >> halved-frequency X2s ~ A510s >
	// ED2P-tuned A510s >= dedicated tiny cores.
	if homog < 0.6 {
		t.Errorf("homogeneous energy overhead %.2f, want lockstep-like (~0.95)", homog)
	}
	if halved > homog || little > homog {
		t.Error("heterogeneous/DVFS configurations not cheaper than homogeneous")
	}
	if ed2p > little+0.02 {
		t.Errorf("ED2P (%.2f) not <= fixed-frequency A510s (%.2f)", ed2p, little)
	}
	if dedicated > little {
		t.Errorf("dedicated tiny cores (%.2f) not cheapest (A510s %.2f)", dedicated, little)
	}
}

func TestAreaMatchesPaper(t *testing.T) {
	a := Area()
	if a.StorageBytes < 1050 || a.StorageBytes > 1080 {
		t.Errorf("storage overhead %dB, want ~1064B", a.StorageBytes)
	}
	if a.DedicatedPct < 33 || a.DedicatedPct > 37 {
		t.Errorf("dedicated area %.1f%%, want ~35%%", a.DedicatedPct)
	}
	if !strings.Contains(a.Table(), "1064B") {
		t.Error("area table missing paper reference")
	}
}

func TestOpportunityShapeInvariants(t *testing.T) {
	r, err := Opportunity(miniScale())
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]float64, len(r.Rows))
	for _, row := range r.Rows {
		vals[row.Label] = row.Value
	}
	for _, flavour := range []string{"GAP-like", "PARSEC-like"} {
		het := vals[flavour+": speedup, 1 X2 + little cores as compute"]
		homog := vals[flavour+": speedup, 2 X2 as compute"]
		if het <= 1.0 {
			t.Errorf("%s: heterogeneous parallel speedup %.2f, want > 1", flavour, het)
		}
		if het >= 2.5 {
			t.Errorf("%s: heterogeneous speedup %.2f implausibly high", flavour, het)
		}
		if homog <= 1.2 {
			t.Errorf("%s: homogeneous 2-big speedup %.2f, want clearly parallel", flavour, homog)
		}
		over := vals[flavour+": overhead, little cores as checkers"]
		if over < 0 || over > 40 {
			t.Errorf("%s: checking overhead %.2f%% out of plausible range", flavour, over)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1()
	for _, want := range []string{"X2", "A510", "A35", "DDR4", "mesh", "5000-instruction"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestMixesMatchPaperFootnote(t *testing.T) {
	m := Mixes()
	if len(m) != 5 {
		t.Fatalf("%d mixes, want 5", len(m))
	}
	e := NewEngine(1)
	for name, benches := range m {
		if len(benches) != 4 {
			t.Errorf("%s has %d benchmarks, want 4", name, len(benches))
		}
		for _, b := range benches {
			_, release, err := e.holdSpec([]string{b})
			if err != nil {
				t.Errorf("%s: %v", b, err)
				continue
			}
			release()
		}
	}
}

func TestAblationShapeInvariants(t *testing.T) {
	r, err := Ablation(miniScale())
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]AblationRow, len(r.Rows))
	for _, row := range r.Rows {
		vals[row.Label] = row
	}
	base := vals["ParaVerser (all mechanisms)"]
	if base.CoveragePct < 99.9 {
		t.Errorf("full-coverage baseline coverage %.1f%%", base.CoveragePct)
	}
	hash := vals["Hash Mode (IV-I)"]
	if hash.LogBPI >= base.LogBPI/2+0.01 {
		t.Errorf("hash mode log traffic %.2f B/inst not <= half of %.2f", hash.LogBPI, base.LogBPI)
	}
	drain := vals["commit-delaying checkpoints (DSN18-style RCU)"]
	if drain.SlowdownPct < base.SlowdownPct {
		t.Error("commit-delaying checkpoints not costlier than overlapped RCU")
	}
	sampled := vals["opportunistic + 1-in-4 sampling (fn.18)"]
	opp := vals["opportunistic mode"]
	if sampled.CoveragePct >= opp.CoveragePct {
		t.Error("sampling did not reduce coverage below plain opportunistic")
	}
	if sampled.CoveragePct < 15 || sampled.CoveragePct > 45 {
		t.Errorf("1-in-4 sampling coverage %.1f%%, want roughly a quarter", sampled.CoveragePct)
	}
}
