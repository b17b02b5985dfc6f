package cpu

import (
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/emu"
)

// benchEffects captures the effect stream of a mixed loop (strided
// loads/stores, ALU, FP, a data-dependent branch) so the timing model
// can be driven without re-running the emulator.
func benchEffects(tb testing.TB, n int64) []emu.Effect {
	const bufWords = 4096
	b := asm.New("bench-mix")
	buf := b.Reserve(bufWords * 8)
	b.Li(5, int64(b.DataAddr(buf)))
	b.Li(20, 0)
	b.Li(21, n)
	b.Li(22, 0)
	b.Label("loop")
	b.Andi(6, 20, bufWords-1)
	b.Slli(6, 6, 3)
	b.Add(7, 5, 6)
	b.Ld(8, 8, 7, 0)
	b.Addi(8, 8, 3)
	b.St(8, 8, 7, 0)
	b.Fcvtif(1, 8)
	b.Fmul(2, 1, 1)
	b.Andi(9, 8, 7)
	b.Beq(9, 22, "skip")
	b.Xor(10, 10, 8)
	b.Label("skip")
	b.Addi(20, 20, 1)
	b.Blt(20, 21, "loop")
	b.Halt()
	prog := b.MustBuild()
	effs := make([]emu.Effect, 0, 16*n)
	if _, err := emu.RunProgram(prog, 0, func(_ int, e *emu.Effect) error {
		effs = append(effs, *e)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return effs
}

// TestCoreConsumeZeroAlloc pins the timing-model hot path: consuming one
// effect (FU allocation, operand tracking, cache hierarchy access,
// branch prediction) performs zero heap allocations in steady state.
func TestCoreConsumeZeroAlloc(t *testing.T) {
	effs := benchEffects(t, 2000)
	core := MustNewCore(X2(), 2.8, ModeMain)
	for i := range effs { // warm caches, predictor tables and FU state
		core.Consume(&effs[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		core.Consume(&effs[i%len(effs)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Core.Consume allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkCoreConsume measures the timing-model path alone.
func BenchmarkCoreConsume(b *testing.B) {
	effs := benchEffects(b, 2000)
	core := MustNewCore(X2(), 2.8, ModeMain)
	for i := range effs {
		core.Consume(&effs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Consume(&effs[i%len(effs)])
	}
}
