package fault

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
	"paraverser/internal/obs"
)

// campaignProgram is a small FP/integer/memory mix that exercises the
// injected functional units.
func campaignProgram(iters int64) *isa.Program {
	b := asm.New("campaign")
	buf := b.Reserve(16 << 10)
	b.Li(5, int64(isa.DefaultDataBase+buf))
	b.Li(20, 0)
	b.Li(21, iters)
	b.Label("loop")
	b.Andi(6, 20, 16<<10/8-1)
	b.Slli(6, 6, 3)
	b.Add(7, 5, 6)
	b.Ld(8, 8, 7, 0)
	b.Addi(8, 8, 7)
	b.St(8, 8, 7, 0)
	b.Fcvtif(1, 8)
	b.Fmul(2, 1, 1)
	b.Addi(20, 20, 1)
	b.Blt(20, 21, "loop")
	b.Halt()
	return b.MustBuild()
}

func campaignConfig(trials, workers int) CampaignConfig {
	full := core.DefaultConfig(core.CheckerSpec{CPU: cpu.A510(), FreqGHz: 2.0, Count: 3})
	full.Recovery = core.DefaultRecovery()
	opp := core.DefaultConfig(core.CheckerSpec{CPU: cpu.A510(), FreqGHz: 2.0, Count: 2})
	opp.Mode = core.ModeOpportunistic
	opp.Recovery = core.DefaultRecovery()
	return CampaignConfig{
		Seed:    2025,
		Trials:  trials,
		Workers: workers,
		Workloads: []core.Workload{
			{Name: "campaign-a", Prog: campaignProgram(6000)},
			{Name: "campaign-b", Prog: campaignProgram(9000)},
		},
		Configs: []core.Config{full, opp},
	}
}

func TestCampaignValidation(t *testing.T) {
	cfg := campaignConfig(0, 1)
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("zero trials accepted")
	}
	cfg = campaignConfig(1, 1)
	cfg.Workloads = nil
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("no workloads accepted")
	}
	cfg = campaignConfig(1, 1)
	cfg.Configs = []core.Config{core.DefaultConfig()} // no checkers
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("checkerless config accepted")
	}
}

// TestCampaignDeterministicAcrossWorkers is the end-to-end seed
// contract: the same base seed must reproduce byte-identical verdict
// tables and merged run metrics no matter how the trials are
// scheduled — serial vs one worker per CPU, with a shared trace ring
// attached on the parallel side to prove observability never perturbs
// outcomes. Run under -race this doubles as the data-race check on the
// metric shards.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	serial, err := RunCampaign(campaignConfig(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	par := campaignConfig(8, runtime.NumCPU())
	ring := obs.NewTrace(1 << 12)
	for i := range par.Configs {
		par.Configs[i].Trace = ring
	}
	parallel, err := RunCampaign(par)
	if err != nil {
		t.Fatal(err)
	}
	if serial.TrialTable() != parallel.TrialTable() {
		t.Errorf("trial tables diverge across worker counts:\n%s\nvs\n%s",
			serial.TrialTable(), parallel.TrialTable())
	}
	if serial.Table() != parallel.Table() {
		t.Error("summary tables diverge across worker counts")
	}
	if sm, pm := serial.RunMetrics().String(), parallel.RunMetrics().String(); sm != pm {
		t.Errorf("campaign metrics diverge across worker counts:\n%s\nvs\n%s", sm, pm)
	}
	if segs, _ := ring.Count(obs.CatSegment); segs == 0 {
		t.Error("traced campaign emitted no segment events")
	}

	// A different seed must actually change the draw.
	other := campaignConfig(8, 4)
	other.Seed = 77
	reseeded, err := RunCampaign(other)
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.TrialTable() == serial.TrialTable() {
		t.Error("different seeds produced identical campaigns")
	}
}

// TestCampaignOutcomesAndRecovery sanity-checks the aggregate: a
// persistent-fault-heavy campaign must detect some faults, quarantine
// implicated checkers, and report a coherent latency distribution.
func TestCampaignOutcomesAndRecovery(t *testing.T) {
	cfg := campaignConfig(12, 4)
	// Persistent-fault-heavy: explicit zeros disable the common-mode
	// kinds (which lockstep configs cannot detect) rather than falling
	// back to DefaultMix.
	cfg.Mix = &FaultMix{Transient: 0.1, LSQ: 0.2}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 12 {
		t.Fatalf("%d trial results, want 12", len(res.Trials))
	}
	counts := res.Outcomes()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 12 {
		t.Errorf("outcome tally %d, want 12", total)
	}
	if counts[Detected] == 0 {
		t.Error("campaign detected nothing")
	}
	st := res.Recovery()
	if st.Events == 0 {
		t.Error("no recovery events despite detections")
	}
	quarantined := 0
	for i := range res.Trials {
		tr := &res.Trials[i]
		if tr.Outcome == Detected && tr.DetectionInst < 0 {
			t.Errorf("trial %d detected without a latency", tr.Index)
		}
		if tr.Quarantined {
			quarantined++
		}
		if tr.Outcome == Detected && tr.Verdict == core.DiagnosisInvalid {
			t.Errorf("trial %d detected without a forensic verdict", tr.Index)
		}
	}
	if quarantined == 0 {
		t.Error("no trial quarantined its faulty checker")
	}
	if lat := res.Latencies(); len(lat) != counts[Detected] {
		t.Errorf("%d latencies for %d detected trials", len(lat), counts[Detected])
	}
	table := res.Table()
	for _, want := range []string{"detected", "undetected-sdc", "trials with quarantine", "latency p99"} {
		if !strings.Contains(table, want) {
			t.Errorf("summary table missing %q:\n%s", want, table)
		}
	}
}

// TestCampaignTrialReplayMatchesLive pins the campaign's shared cache:
// every trial of a block returns an identical TrialResult whether it
// runs live or replays the main stream from the primed SpecCache, and
// the lockstep trials with checker-side faults do replay.
func TestCampaignTrialReplayMatchesLive(t *testing.T) {
	cfg := campaignConfig(24, 1)
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec, err := primeSpec(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec == nil {
		t.Fatal("lockstep campaign was not primed")
	}
	primed := spec.Stats().StreamsRecorded
	if primed != uint64(len(cfg.Workloads)) {
		t.Fatalf("priming recorded %d streams, want one per workload (%d)", primed, len(cfg.Workloads))
	}
	replayable := 0
	for i := 0; i < cfg.Trials; i++ {
		tr := genTrial(&cfg, i)
		if !tr.Fault.CommonMode() {
			replayable++
		}
		live, err := runTrial(&cfg, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := runTrial(&cfg, tr, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replay) {
			t.Errorf("trial %d (%s): replayed result differs from live:\n%+v\nvs\n%+v", i, tr.Fault, live, replay)
		}
	}
	st := spec.Stats()
	if replayable == 0 || st.StreamsReplayed != uint64(replayable) {
		t.Errorf("replayed %d streams for %d checker-fault trials", st.StreamsReplayed, replayable)
	}
	if st.StreamsRecorded != primed || st.SpecAborts != 0 {
		t.Errorf("trials recorded %d streams and aborted %d replays, want none", st.StreamsRecorded-primed, st.SpecAborts)
	}
}

// TestCampaignTrialRetriesDivergedReplay forces a replay divergence:
// the trial's first run advances its injector and then fails with
// ErrSpecDiverged, and the trial must rerun live with a fresh injector
// and report exactly the live result.
func TestCampaignTrialRetriesDivergedReplay(t *testing.T) {
	cfg := campaignConfig(8, 1)
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec, err := primeSpec(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr Trial
	for i := 0; ; i++ {
		if tr = genTrial(&cfg, i); !tr.Fault.CommonMode() && tr.Fault.Kind != Transient {
			break
		}
	}
	live, err := runTrial(&cfg, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if live.Fires == 0 {
		t.Fatalf("trial %d never fires its fault; the retry check would be vacuous", tr.Index)
	}

	calls := 0
	runSystem = func(sys core.Config, ws []core.Workload) (*core.Result, error) {
		calls++
		if sys.Spec != nil {
			// Exercise every checker's injector, as a run that diverged
			// midway would have.
			for ck := 0; ck < 4; ck++ {
				if in := sys.CheckerInterceptor(0, ck); in != nil {
					for i := 0; i < 1000; i++ {
						in.Result(isa.Inst{}, tr.Fault.Class, false, 0)
						in.Address(isa.Inst{}, 0)
					}
				}
			}
			return nil, core.ErrSpecDiverged
		}
		return core.Run(sys, ws)
	}
	defer func() { runSystem = core.Run }()
	got, err := runTrial(&cfg, tr, spec)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("trial ran %d times, want a diverged replay and one live retry", calls)
	}
	if !reflect.DeepEqual(got, live) {
		t.Errorf("retried trial differs from the live trial:\n%+v\nvs\n%+v", got, live)
	}
}

func TestClassifySDC(t *testing.T) {
	cases := []struct {
		fires, acts uint64
		detected    bool
		want        Outcome
	}{
		{0, 0, false, Dormant},
		{5, 0, false, Masked},
		{5, 3, false, UndetectedSDC},
		{5, 3, true, Detected},
	}
	for _, c := range cases {
		in := &Injector{Fires: c.fires, Activations: c.acts}
		if got := ClassifySDC(in, c.detected); got != c.want {
			t.Errorf("ClassifySDC(fires=%d, acts=%d, det=%v) = %v, want %v",
				c.fires, c.acts, c.detected, got, c.want)
		}
	}
}

// divergentCampaignConfig mirrors campaignConfig with a single
// divergent-mode system and a mix weighted toward the common-mode
// memory-path faults divergent checking exists to catch.
func divergentCampaignConfig(trials, workers int) CampaignConfig {
	div := core.DefaultConfig(core.CheckerSpec{CPU: cpu.A510(), FreqGHz: 2.0, Count: 3})
	div.Recovery = core.DefaultRecovery()
	div.Strategy = core.StrategyDivergent
	return CampaignConfig{
		Seed:    2025,
		Trials:  trials,
		Workers: workers,
		Workloads: []core.Workload{
			{Name: "campaign-a", Prog: campaignProgram(6000)},
			{Name: "campaign-b", Prog: campaignProgram(9000)},
		},
		Configs: []core.Config{div},
		Mix:     &FaultMix{Transient: 0.15, LSQ: 0.15, StuckAddr: 0.25, DRAMRow: 0.25},
	}
}

// TestDivergentCampaignDeterministicAcrossWorkers extends the
// worker-count determinism contract to divergent mode: the
// canonicalized-trace comparison must produce byte-identical verdict
// tables and merged metrics whether trials run serially or one per CPU.
// Under -race this doubles as the data-race check on the divergent
// check path.
func TestDivergentCampaignDeterministicAcrossWorkers(t *testing.T) {
	serial, err := RunCampaign(divergentCampaignConfig(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCampaign(divergentCampaignConfig(8, runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if serial.TrialTable() != parallel.TrialTable() {
		t.Errorf("divergent trial tables diverge across worker counts:\n%s\nvs\n%s",
			serial.TrialTable(), parallel.TrialTable())
	}
	if serial.Table() != parallel.Table() {
		t.Error("divergent summary tables diverge across worker counts")
	}
	if sm, pm := serial.RunMetrics().String(), parallel.RunMetrics().String(); sm != pm {
		t.Errorf("divergent campaign metrics diverge across worker counts:\n%s\nvs\n%s", sm, pm)
	}
	if serial.RunMetrics().SegmentsCheckedDivergent == 0 {
		t.Error("divergent campaign never took the divergent check path")
	}
}

// TestDivergentDetectsCommonModeEscape is the acceptance demonstration
// of the DME tentpole: a stuck address bit on the main core's memory
// path escapes lockstep checking as an undetected SDC (the checker
// replays the identical corruption from the log), while the divergent
// configuration's private canonical image contradicts the corrupted
// load data and detects it.
func TestDivergentDetectsCommonModeEscape(t *testing.T) {
	fault := Fault{Kind: StuckAddr, Bit: 13}
	ws := []core.Workload{{Name: "campaign-a", Prog: campaignProgram(6000)}}

	run := func(strat core.Strategy) (*core.Result, *Injector) {
		inj, err := NewInjector(fault)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(core.CheckerSpec{CPU: cpu.A510(), FreqGHz: 2.0, Count: 3})
		cfg.Recovery = core.DefaultRecovery()
		cfg.Strategy = strat
		cfg.MainInterceptor = func(int) emu.Interceptor { return inj }
		res, err := core.Run(cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		return res, inj
	}

	lockRes, lockInj := run(core.StrategyLockstep)
	if lockInj.Activations == 0 {
		t.Fatal("stuck-addr fault never activated; the workload does not exercise bit 13")
	}
	if d := lockRes.Lanes[0].Detections; d != 0 {
		t.Fatalf("lockstep detected a common-mode main-path fault (%d detections); the escape premise is broken", d)
	}
	if got := ClassifySDC(lockInj, false); got != UndetectedSDC {
		t.Fatalf("lockstep outcome %v, want undetected-sdc", got)
	}

	divRes, divInj := run(core.StrategyDivergent)
	if divInj.Activations == 0 {
		t.Fatal("fault inactive under the divergent run")
	}
	if divRes.Lanes[0].Detections == 0 {
		t.Fatal("divergent checking missed the common-mode fault lockstep escaped")
	}
	if divRes.Metrics.DivergentDataMismatches == 0 {
		t.Error("detection did not come from the private-image cross-check")
	}
	if got := ClassifySDC(divInj, true); got != Detected {
		t.Fatalf("divergent outcome %v, want detected", got)
	}
}
