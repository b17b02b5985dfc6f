package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

// rowFaultInterceptor is a common-mode memory-path fault on the main
// core: every load from an odd 4KiB page returns with bit 0 flipped, as
// a faulty DRAM row would. A lockstep checker replays the corrupted log
// and cannot see it; a divergent checker's private image can.
type rowFaultInterceptor struct{}

func (rowFaultInterceptor) Result(_ isa.Inst, _ isa.Class, _ bool, v uint64) uint64 { return v }
func (rowFaultInterceptor) Address(_ isa.Inst, addr uint64) uint64                  { return addr }
func (rowFaultInterceptor) LoadData(_ isa.Inst, addr uint64, v uint64) uint64 {
	if addr>>12&1 == 1 {
		return v ^ 1
	}
	return v
}

// canonicalDigest hashes a pointer-free rendering of the per-lane and
// per-checker results: every table the experiments print is a function
// of these two fields.
func canonicalDigest(res *Result) string {
	h := sha256.New()
	for i, l := range res.Lanes {
		fmt.Fprintf(h, "lane %d %+v\n", i, l)
	}
	for i, cks := range res.CheckersByLane {
		for _, ck := range cks {
			fmt.Fprintf(h, "lane %d checker %+v\n", i, ck)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestCheckPathOracle pins the per-lane and per-checker results of one
// configuration per check path — deferred-join lockstep with and
// without Hash Mode, synchronous lockstep under recovery with a
// stuck-at checker that is quarantined, degrades the lane and is
// readmitted, divergent recovery against a common-mode main fault,
// chunk replay, relaxed start with deferrals, late wake, a dedicated
// LSL SRAM, and a SpecCache replay — to digests recorded before the
// check paths were merged. A refactor of the dispatch machinery must
// leave every digest unchanged.
func TestCheckPathOracle(t *testing.T) {
	prog := mixedProgram(12000)
	pair := []Workload{
		{Name: "m0", Prog: prog, MaxInsts: 8000, WarmupInsts: 2000},
		{Name: "m1", Prog: prog},
	}
	run := func(cfg Config, ws []Workload) *Result {
		t.Helper()
		res, err := Run(cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cases := []struct {
		name string
		want string
		run  func() *Result
	}{
		{"pipelined-lockstep", "2577be6a7f21a658", func() *Result {
			return run(DefaultConfig(a510Checkers(2, 2.0)), pair)
		}},
		{"pipelined-hash-mode", "e5446c1967806c96", func() *Result {
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			cfg.HashMode = true
			return run(cfg, pair)
		}},
		{"lockstep-recovery-quarantine-degrade-readmit", "faa3ef809f073d07", func() *Result {
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			cfg.Recovery = DefaultRecovery()
			cfg.Recovery.Quarantine.CooldownNS = 20_000
			res := runPhasedFault(t, cfg, Workload{Name: "mixed", Prog: mixedProgram(20000)})
			if l := res.Lanes[0]; l.DegradedSegments == 0 || l.Recovery.Readmissions == 0 {
				t.Fatalf("phased run did not degrade and readmit: %+v", l.Recovery)
			}
			return res
		}},
		{"divergent-recovery-common-mode", "ac9e473766adeffb", func() *Result {
			cfg := divergentConfig(2)
			cfg.Recovery = DefaultRecovery()
			cfg.MainInterceptor = func(int) emu.Interceptor { return rowFaultInterceptor{} }
			res := run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(20000)}})
			if res.Lanes[0].Recovery.Events == 0 {
				t.Fatal("common-mode fault never reached recovery")
			}
			return res
		}},
		{"chunk-replay", "96784432214d5a42", func() *Result {
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			cfg.Strategy = StrategyChunkReplay
			return run(cfg, pair)
		}},
		{"relaxed", "3d2de8a4db14e6e9", func() *Result {
			cfg := DefaultConfig(a510Checkers(1, 1.0))
			cfg.Strategy = StrategyRelaxed
			res := run(cfg, []Workload{{Name: "mixed", Prog: mixedProgram(16000)}})
			if res.Metrics.RelaxedDeferred == 0 {
				t.Fatal("relaxed run never deferred a check")
			}
			return res
		}},
		{"late-wake", "2fcdf1752c241612", func() *Result {
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			cfg.EagerWake = false
			return run(cfg, pair)
		}},
		{"dedicated-lsl", "3c361529fef1e5a9", func() *Result {
			cfg := DefaultConfig(x2Checkers(1, 3.0))
			cfg.DedicatedLSLBytes = 3 << 10
			return run(cfg, []Workload{{Name: "m", Prog: mixedProgram(20000)}})
		}},
		{"spec-replay", "2577be6a7f21a658", func() *Result {
			cfg := DefaultConfig(a510Checkers(2, 2.0))
			cfg.Spec = NewSpecCache()
			run(cfg, pair)
			res := run(cfg, pair)
			if cfg.Spec.Stats().StreamsReplayed == 0 {
				t.Fatal("second run did not replay")
			}
			return res
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := canonicalDigest(tc.run()); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
