#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate, runnable locally exactly as
# CI runs it: gofmt (formatting), go vet (stdlib checks), and paralint
# (the project's own invariant analyzers: determinism, hotpathalloc,
# shardsafety).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

unformatted=$(gofmt -l . | grep -v '^testdata/' || true)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    fail=1
fi

if ! go vet ./...; then
    fail=1
fi

if ! go run ./cmd/paralint ./...; then
    fail=1
fi

if [[ "$fail" -ne 0 ]]; then
    echo "lint: FAIL" >&2
    exit 1
fi
echo "lint: OK"
