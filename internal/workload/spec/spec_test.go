package spec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"paraverser/internal/cpu"
	"paraverser/internal/emu"
	"paraverser/internal/isa"
)

func TestAllProfilesBuildAndRun(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog, err := p.Build(200)
			if err != nil {
				t.Fatal(err)
			}
			if err := prog.Validate(); err != nil {
				t.Fatal(err)
			}
			n, err := emu.RunProgram(prog, 1_000_000, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n < 1000 {
				t.Errorf("only %d instructions executed", n)
			}
		})
	}
}

func TestProfilesDeterministic(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	a := p.MustBuild(50)
	b := p.MustBuild(50)
	if len(a.Insts) != len(b.Insts) {
		t.Fatal("non-deterministic code size")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

// programDigest hashes a program's data segment followed by its
// instruction stream (each instruction's fields in declaration order).
func programDigest(p *isa.Program) string {
	h := sha256.New()
	h.Write(p.Data.Bytes())
	var buf [13]byte
	for _, in := range p.Insts {
		buf[0], buf[1], buf[2], buf[3], buf[4] = byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2), in.Size
		binary.LittleEndian.PutUint64(buf[5:], uint64(in.Imm))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProfilesPinned pins every generated program byte for byte: the
// working-set contents and the code. Every SPEC table depends on them,
// so a generator change that moves one digest changes results.
func TestProfilesPinned(t *testing.T) {
	want := map[string]string{
		"perlbench": "f8e8600b552f0a0985d2aa240217a6a16e1cb60152b2057ef22b7fade0494287",
		"gcc":       "f3da4d4e5ac7c7083095727e799fd5841f26a0d65e8f61c78ebc8a1eedf6ffea",
		"mcf":       "f57473822f0468729b9cc5712d0c070960214daf81ea9b659b8bafbbee29a60d",
		"omnetpp":   "faba18b6abfdc3457ce07781f02f009ecdcff591c683acf4eebb74cbd30f80fd",
		"xalancbmk": "79d24d3ddf83c9f047914b22094d28cc5356eec9cdbbcd9b1522505a1288e8e7",
		"x264":      "5abb62142554a192842161d93c853155c713d9258b1d0183c9a85ac35506f3ed",
		"deepsjeng": "ecd4e495269d359ff812c91eea390df580123e9813bf20ec738d64e6e30021b5",
		"leela":     "091e48ca024d31daa90bce34dcc54ce009d471b75ad675043d05c1b1bf556103",
		"exchange2": "9e77f7f4882980fd68c6ef5a14bdb6b5f0afaf49fe0e16a05f118137979e0f68",
		"xz":        "509f62a8f9628eafcce5d11a3f62b86d3bd0e146a91384204aa37ee6ccaad3f0",
		"bwaves":    "651f89ebeebef398969dd36e6703e74626f513dae0d751d62c3ed00e9a9c1f04",
		"cactuBSSN": "36a329665ddf7faf80f08acb9432c543c31e1c5fe155ce4d9b4a24e7abd8761e",
		"lbm":       "aef4e739330405abba9e2d2d29331d8597cd22713f3196404f0649c720ea5e45",
		"wrf":       "85bba8af8a5ff3ca14fe3d804b573984188d5da87ca49e2588bc381004fb9171",
		"cam4":      "1775c61fb132027577983e65b6e9c8b0a4700f7a4f5af71e2693dfda5b1c05b5",
		"pop2":      "4b13676bf228976b12d6640e6071001fb6a97b17748493278cc5fb30e0a98b53",
		"imagick":   "d3d67431952b19c93ce7373ebf320b62b48c80b47732ff2bd5033c3b8879d608",
		"nab":       "2629e53c73fbdb937402b53f62f86b95a961b34377456d1d3c9821c7a8f0c06e",
		"fotonik3d": "78aafb62827c94a5031c6b9ab7790217980d74428ab87e214b3b9252e84b115e",
		"roms":      "f76ff23537065a10251f3a8412b16528615c2df7307810823c136b42c0a2520c",
	}
	for _, p := range Profiles() {
		got := programDigest(p.MustBuild(1 << 40))
		if got != want[p.Name] {
			t.Errorf("%s: digest %s, want %s", p.Name, got, want[p.Name])
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("bwaves"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("want error for unknown benchmark")
	}
	if len(Names()) != 20 {
		t.Errorf("%d benchmarks, want 20 (SPECspeed 2017)", len(Names()))
	}
}

// classCounts runs the benchmark and tallies instruction classes.
func classCounts(t *testing.T, name string, limit int64) map[isa.Class]int64 {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog := p.MustBuild(1 << 30)
	counts := make(map[isa.Class]int64)
	if _, err := emu.RunProgram(prog, limit, func(_ int, e *emu.Effect) error {
		counts[e.Class]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return counts
}

func TestBwavesIsFdivHeavy(t *testing.T) {
	bw := classCounts(t, "bwaves", 100_000)
	gcc := classCounts(t, "gcc", 100_000)
	bwFdiv := float64(bw[isa.ClassFPDiv]) / 100_000
	gccFdiv := float64(gcc[isa.ClassFPDiv]) / 100_000
	if bwFdiv < 0.02 {
		t.Errorf("bwaves fdiv fraction %.4f too low", bwFdiv)
	}
	if gccFdiv > bwFdiv/10 {
		t.Errorf("gcc fdiv fraction %.4f not << bwaves %.4f", gccFdiv, bwFdiv)
	}
}

func TestIntBenchmarksHaveNoFP(t *testing.T) {
	for _, name := range []string{"mcf", "exchange2", "xz"} {
		c := classCounts(t, name, 50_000)
		fp := c[isa.ClassFPAdd] + c[isa.ClassFPMul] + c[isa.ClassFPDiv]
		// The prologue converts a few constants; beyond that, none.
		if fp > 20 {
			t.Errorf("%s: %d FP instructions", name, fp)
		}
	}
}

// ipcOn measures IPC of a benchmark on a core model.
func ipcOn(t *testing.T, name string, cfg cpu.Config, freq float64, limit int64) float64 {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog := p.MustBuild(1 << 30)
	core := cpu.MustNewCore(cfg, freq, cpu.ModeMain)
	if _, err := emu.RunProgram(prog, limit, func(_ int, e *emu.Effect) error {
		core.Consume(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return core.IPC()
}

func TestComputeBoundFasterThanMemoryBound(t *testing.T) {
	exch := ipcOn(t, "exchange2", cpu.X2(), 3.0, 200_000)
	mcf := ipcOn(t, "mcf", cpu.X2(), 3.0, 200_000)
	if exch < 2*mcf {
		t.Errorf("exchange2 IPC %.2f not >> mcf IPC %.2f", exch, mcf)
	}
}

func TestGccStressesICache(t *testing.T) {
	p, _ := ByName("gcc")
	prog := p.MustBuild(1 << 30)
	core := cpu.MustNewCore(cpu.X2(), 3.0, cpu.ModeMain)
	if _, err := emu.RunProgram(prog, 200_000, func(_ int, e *emu.Effect) error {
		core.Consume(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rate := core.Hier.L1I.Stats.MissRate(); rate < 0.01 {
		t.Errorf("gcc L1I miss rate %.4f too low for an icache-hungry benchmark", rate)
	}

	// exchange2's tiny code footprint should hit nearly always.
	p2, _ := ByName("exchange2")
	prog2 := p2.MustBuild(1 << 30)
	core2 := cpu.MustNewCore(cpu.X2(), 3.0, cpu.ModeMain)
	if _, err := emu.RunProgram(prog2, 200_000, func(_ int, e *emu.Effect) error {
		core2.Consume(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if r1, r2 := core.Hier.L1I.Stats.MissRate(), core2.Hier.L1I.Stats.MissRate(); r2 > r1/2 {
		t.Errorf("exchange2 L1I miss rate %.4f not << gcc %.4f", r2, r1)
	}
}

func TestBadProfilesRejected(t *testing.T) {
	p := Profile{Name: "bad", WorkingSet: 5000, Blocks: 1, OpsPerBlock: 1}
	if _, err := p.Build(10); err == nil {
		t.Error("want error for non-power-of-two working set")
	}
	p2 := Profile{Name: "bad2", WorkingSet: 4096}
	if _, err := p2.Build(10); err == nil {
		t.Error("want error for zero blocks")
	}
	p3 := Profile{Name: "bad3", WorkingSet: 1 << 31, Blocks: 1, OpsPerBlock: 1}
	if _, err := p3.Build(10); err == nil {
		t.Error("want error for a working set above 1GiB")
	}
}
