#!/usr/bin/env bash
# nofma.sh — fails if any architecture would fuse a floating-point
# multiply and add in this module's code. The Go spec lets a compiler
# fuse x*y + z into one instruction, which skips the product's rounding,
# unless an explicit float64(...) conversion rounds it. amd64 never
# fuses, but arm64, ppc64le, s390x and riscv64 do, so their tables would
# differ in the last bits. For each of those, the script compiles every
# package of the module with -S on the module's own code (no cgo, no
# network) and prints every fused instruction with its source line.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for arch in arm64 ppc64le s390x riscv64; do
    if ! asm=$(GOARCH=$arch go build -o /dev/null -gcflags='paraverser/...=-S' ./... 2>&1); then
        echo "$asm" >&2
        echo "nofma: $arch build failed" >&2
        exit 1
    fi
    fused=$(grep -E '[[:space:]]FN?M(ADD|SUB)[A-Z]*[[:space:]]' <<<"$asm" || true)
    if [[ -n "$fused" ]]; then
        echo "nofma: $arch fuses multiply-add:" >&2
        echo "$fused" >&2
        fail=1
    fi
done

if [[ "$fail" -ne 0 ]]; then
    echo "nofma: FAIL (round the product with an explicit float64(...))" >&2
    exit 1
fi
echo "nofma: OK"
