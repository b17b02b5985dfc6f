package isa_test

import (
	"bytes"
	"testing"

	"paraverser/internal/isa"
	"paraverser/internal/workload/gap"
	"paraverser/internal/workload/parsec"
	"paraverser/internal/workload/spec"
)

// The binary decoder parses text segments from outside the process, so
// it must reject malformed input with an error, never a panic, and
// accept only instructions the rest of the simulator can run. Both
// targets are seeded from the text of shipped workloads:
//
//	go test ./internal/isa -run '^$' -fuzz '^FuzzDecodeInst$' -fuzztime 15s

// seedTexts encodes a few shipped workloads: a SPEC profile, a GAP
// kernel and a PARSEC kernel, at small sizes.
func seedTexts(f *testing.F) [][]byte {
	f.Helper()
	p, err := spec.ByName("exchange2")
	if err != nil {
		f.Fatal(err)
	}
	sp, err := p.Build(50)
	if err != nil {
		f.Fatal(err)
	}
	bfs, _ := gap.BFS(gap.Kronecker(6, 4, 1), 0)
	var texts [][]byte
	for _, prog := range []*isa.Program{sp, bfs, parsec.BlackscholesThreads(20, 1)} {
		text, err := isa.EncodeProgram(prog)
		if err != nil {
			f.Fatalf("%s: %v", prog.Name, err)
		}
		texts = append(texts, text)
	}
	return texts
}

// checkAccepted holds an accepted instruction to what the simulator
// assumes of it: registers inside the register files, an encoding that
// reproduces the input bytes, and a predecode that does not panic.
func checkAccepted(t *testing.T, in isa.Inst, raw []byte) {
	t.Helper()
	if in.Rd >= isa.NumIntRegs || in.Rs1 >= isa.NumIntRegs || in.Rs2 >= isa.NumIntRegs {
		t.Fatalf("accepted %s with a register out of range", in)
	}
	b, err := in.Encode()
	if err != nil {
		t.Fatalf("re-encoding accepted %s: %v", in, err)
	}
	if !bytes.Equal(b[:], raw) {
		t.Fatalf("%s re-encodes to % x, decoded from % x", in, b, raw)
	}
	isa.Predecode(in)
}

// FuzzDecodeInst checks that any 8 bytes either fail to decode or
// decode to an instruction that checkAccepted holds.
func FuzzDecodeInst(f *testing.F) {
	for _, text := range seedTexts(f) {
		seen := map[string]bool{}
		for off := 0; off < len(text); off += isa.InstBytes {
			b := text[off : off+isa.InstBytes]
			if !seen[string(b)] {
				seen[string(b)] = true
				f.Add(b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [isa.InstBytes]byte
		copy(b[:], data)
		in, err := isa.DecodeInst(b)
		if err != nil {
			return
		}
		checkAccepted(t, in, b[:])
	})
}

// FuzzDecodeProgram checks that any text either fails to decode or
// decodes to one accepted instruction per 8 bytes, each of which
// checkAccepted holds.
func FuzzDecodeProgram(f *testing.F) {
	for _, text := range seedTexts(f) {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		insts, err := isa.DecodeProgram(text)
		if err != nil {
			return
		}
		if len(insts)*isa.InstBytes != len(text) {
			t.Fatalf("%d bytes decoded to %d instructions", len(text), len(insts))
		}
		for i, in := range insts {
			checkAccepted(t, in, text[i*isa.InstBytes:(i+1)*isa.InstBytes])
		}
	})
}
