package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// minAttributed is the least share of CPU samples the layers must
// account for; below it the split no longer says where the time went.
const minAttributed = 0.90

// layers are the repository's packages, and the Go runtime, the CPU
// profile is split by; a prefix layer also owns the packages below it.
var layers = []struct {
	name, pkg string
	prefix    bool
}{
	{"emu", "paraverser/internal/emu", false},
	{"cpu", "paraverser/internal/cpu", false},
	{"cachesim", "paraverser/internal/cachesim", false},
	{"branch", "paraverser/internal/branch", false},
	{"noc", "paraverser/internal/noc", false},
	{"dram", "paraverser/internal/dram", false},
	{"core", "paraverser/internal/core", false},
	{"experiments", "paraverser/internal/experiments", false},
	{"fault", "paraverser/internal/fault", false},
	{"isa", "paraverser/internal/isa", false},
	{"verify", "paraverser/internal/isa/verify", false},
	{"fuzz", "paraverser/internal/isa/fuzz", false},
	{"asm", "paraverser/internal/asm", false},
	{"workload", "paraverser/internal/workload", true},
	{"runtime", "runtime", true},
}

// layerOf maps a function name as pprof prints it, such as
// "paraverser/internal/cpu.(*Core).Consume", to its layer, or "".
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/') + 1
	if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
		pkg = pkg[:slash+dot]
	}
	pkg = strings.TrimPrefix(pkg, "internal/") // internal/runtime/... belongs to the runtime
	for _, l := range layers {
		if pkg == l.pkg || l.prefix && strings.HasPrefix(pkg, l.pkg+"/") {
			return l.name
		}
	}
	return ""
}

// profileShares splits a CPU profile's flat samples by layer, using
// `go tool pprof -top`. It returns prof.<layer>.self_share for every
// layer and prof.attributed_share, the share the layers account for.
func profileShares(ctx context.Context, profile string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=0", "-unit=ms", profile)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, lastLine(stderr.String()))
	}
	return splitTop(stdout.String())
}

// splitTop sums the flat column of `pprof -top -unit=ms` output by layer.
func splitTop(top string) (map[string]float64, error) {
	byLayer := make(map[string]float64)
	var total float64
	rows := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		total += ms
		byLayer[layerOf(f[5])] += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	shares := make(map[string]float64, len(layers)+1)
	var attributed float64
	for _, l := range layers {
		shares["prof."+l.name+".self_share"] = byLayer[l.name] / total
		attributed += byLayer[l.name]
	}
	shares["prof.attributed_share"] = attributed / total
	return shares, nil
}
