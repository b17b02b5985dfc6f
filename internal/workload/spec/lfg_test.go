package spec

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"paraverser/internal/emu"
)

// lfgSeeds is every profile's seed plus a few others, 0 among them
// (math/rand maps seed 0 to a fixed substitute).
func lfgSeeds() []int64 {
	seeds := []int64{0, 1, -7, 1 << 40}
	for _, p := range Profiles() {
		seeds = append(seeds, seedFor(p.Name))
	}
	return seeds
}

// TestLFGMatchesMathRand: an lfg reproduces rand.NewSource's stream
// from its first draw, and rand.New over it makes the same Intn,
// Float64 and Perm draws as over math/rand's own source.
func TestLFGMatchesMathRand(t *testing.T) {
	for _, seed := range lfgSeeds() {
		want, got := rand.NewSource(seed).(rand.Source64), newLFG(seed)
		for n := 0; n < 1<<20; n++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: output %d = %#x, want %#x", seed, n, g, w)
			}
		}
		wr, gr := rand.New(rand.NewSource(seed)), rand.New(newLFG(seed))
		for n := 1; n <= 4096; n++ {
			if w, g := wr.Intn(n), gr.Intn(n); w != g {
				t.Fatalf("seed %d: Intn(%d) = %d, want %d", seed, n, g, w)
			}
			if w, g := wr.Float64(), gr.Float64(); w != g {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, n, g, w)
			}
		}
		w, g := wr.Perm(1000), gr.Perm(1000)
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("seed %d: Perm[%d] = %d, want %d", seed, i, g[i], w[i])
			}
		}
	}
}

// TestLFGBulkMatchesDraws: next, with and without output, and a
// save/restore round trip stay on the one-at-a-time stream, across
// period boundaries at odd offsets.
func TestLFGBulkMatchesDraws(t *testing.T) {
	const mask = uint64(1<<24-1) &^ 7
	ref, bulk := newLFG(3), newLFG(3)
	for _, n := range []int{1, 1000, 606, 607, 5000, 273, 334} {
		out := make([]byte, 8*n)
		bulk.next(n, out, mask)
		for k := 0; k < n; k++ {
			if w, g := ref.Uint64()>>32&mask, binary.LittleEndian.Uint64(out[8*k:]); w != g {
				t.Fatalf("word %d of a %d-word run = %#x, want %#x", k, n, g, w)
			}
		}
		bulk.next(n, nil, 0)
		for k := 0; k < n; k++ {
			ref.Uint64()
		}
		var saved [lfgLen]uint64
		bulk.save(saved[:])
		bulk = &lfg{}
		bulk.restore(saved[:])
		if w, g := ref.Uint64(), bulk.Uint64(); w != g {
			t.Fatalf("after %d-word runs: %#x, want %#x", n, g, w)
		}
	}
}

// TestWorkingSetMaterialisesOnTouch: one quick-scale run of lbm (a
// streaming model over a 64 MiB set) leaves under a tenth of its
// working set's chunks built.
func TestWorkingSetMaterialisesOnTouch(t *testing.T) {
	p, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	prog := p.MustBuild(1 << 40)
	if filled, _ := prog.Data.ChunksFilled(); filled != 0 {
		t.Fatalf("%d chunks built before any run", filled)
	}
	const quickWindow = 80_000 + 120_000 // warm-up plus measured window
	if _, err := emu.RunProgram(prog, quickWindow, nil); err != nil {
		t.Fatal(err)
	}
	filled, total := prog.Data.ChunksFilled()
	if filled == 0 || 10*filled >= total {
		t.Errorf("%d of %d chunks built, want at least one and under 10%%", filled, total)
	}
}
