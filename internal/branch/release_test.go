package branch

import (
	"math/rand"
	"reflect"
	"testing"

	"paraverser/internal/isa"
)

// TestReleaseRestoresNewUnit: a core unit trained on branches and
// jumps, then released, is deeply equal to a fresh one, so a recycled
// unit predicts exactly as a new one would.
func TestReleaseRestoresNewUnit(t *testing.T) {
	for _, big := range []bool{false, true} {
		fresh := NewUnit(NewSmallTAGE(), 11)
		if big {
			fresh = NewUnit(NewDefaultTAGE(), 13)
		}
		u := NewCoreUnit(big)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			pc := uint64(rng.Intn(1 << 14))
			op := [...]isa.Op{isa.OpBEQ, isa.OpJAL, isa.OpJALR}[rng.Intn(3)]
			u.Resolve(op, pc, rng.Intn(3) > 0, uint64(rng.Intn(64)))
		}
		if reflect.DeepEqual(u, fresh) {
			t.Fatalf("big=%v: training left the unit unchanged", big)
		}
		u.Release()
		if !reflect.DeepEqual(u, fresh) {
			t.Errorf("big=%v: released unit differs from a fresh one", big)
		}
		if got := NewCoreUnit(big); !reflect.DeepEqual(got, fresh) {
			t.Errorf("big=%v: NewCoreUnit after Release differs from a fresh unit", big)
		}
	}
}
