package spec

import (
	"encoding/binary"
	"math/rand"
)

// math/rand's source is an additive lagged-Fibonacci generator: once it
// has produced 607 outputs, each later one is
// y[n] = y[n-607] + y[n-273] mod 2^64. Solving that backwards gives the
// 607 outputs it would have produced before its first draw, so the
// stream can be continued from there, and from any saved 607-word state.
const (
	lfgLen = 607
	lfgTap = 273
	lfgLag = lfgLen - lfgTap // y[n-273] sits lfgLag past y[n-607]
)

// lfg continues rand.NewSource(seed)'s stream output for output, so a
// rand.New(lfg) makes the same draws as rand.New(rand.NewSource(seed)).
// Unlike math/rand's source, its state can be saved and restored.
type lfg struct {
	r [lfgLen]uint64 // the last 607 outputs, the oldest at i
	i int
}

// newLFG returns the generator positioned before rand.NewSource(seed)'s
// first draw.
func newLFG(seed int64) *lfg {
	src := rand.NewSource(seed).(rand.Source64)
	// y[j] holds output j-607: the first 607 real outputs, then the 607
	// virtual ones before them, solved as y[k] = y[k+607] - y[k+334].
	var y [2 * lfgLen]uint64
	for j := lfgLen; j < len(y); j++ {
		y[j] = src.Uint64()
	}
	for j := lfgLen - 1; j >= 0; j-- {
		y[j] = y[j+lfgLen] - y[j+lfgLag]
	}
	g := &lfg{}
	copy(g.r[:], y[:lfgLen])
	return g
}

// Uint64 returns the next output.
func (g *lfg) Uint64() uint64 {
	j := g.i + lfgLag
	if j >= lfgLen {
		j -= lfgLen
	}
	g.r[g.i] += g.r[j]
	y := g.r[g.i]
	if g.i++; g.i == lfgLen {
		g.i = 0
	}
	return y
}

// Int63 returns the next output's low 63 bits, as math/rand's source does.
func (g *lfg) Int63() int64 { return int64(g.Uint64() &^ (1 << 63)) }

// Seed is not supported: an lfg is positioned by newLFG or restore.
func (g *lfg) Seed(int64) { panic("spec: lfg cannot be reseeded") }

// next advances n outputs. With out non-nil it also writes each output y
// to out as the little-endian word y>>32&mask; for mask = ws-1 &^ 7 with
// ws a power of two below 2^31, that is rand.Intn(ws) &^ 7 of the draw.
// Each 607-output period runs as two loops with no wrap-around test.
func (g *lfg) next(n int, out []byte, mask uint64) {
	r := &g.r
	for n > 0 {
		i := g.i
		end := min(lfgLen, i+n)
		if t := min(end, lfgTap); i < t {
			lo, hi := r[i:t], r[i+lfgLag:t+lfgLag]
			for k := range lo {
				lo[k] += hi[k]
			}
		}
		if s := max(i, lfgTap); s < end {
			// src overlaps dst from 273 on; those reads see this loop's
			// own writes, which is the recurrence.
			dst, src := r[s:end], r[s-lfgTap:end-lfgTap]
			for k := range dst {
				dst[k] += src[k]
			}
		}
		if out != nil {
			for _, y := range r[i:end] {
				binary.LittleEndian.PutUint64(out, y>>32&mask)
				out = out[8:]
			}
		}
		n -= end - i
		g.i = end % lfgLen
	}
}

// save writes the state to dst[:lfgLen], oldest output first.
func (g *lfg) save(dst []uint64) {
	n := copy(dst[:lfgLen], g.r[g.i:])
	copy(dst[n:lfgLen], g.r[:g.i])
}

// restore sets the state saved by save.
func (g *lfg) restore(src []uint64) {
	copy(g.r[:], src[:lfgLen])
	g.i = 0
}
