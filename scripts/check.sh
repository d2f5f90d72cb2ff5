#!/usr/bin/env bash
# Tier-1 verification: vet, build, and the full test suite under the race
# detector. CI and pre-merge checks run exactly this script.
#
#   scripts/check.sh         vet (this module and the cmd/sfpbench module)
#                            + build + race tests
#   scripts/check.sh recover durability suite under -race: WAL corruption
#                            tests, codec fuzz corpus replay, and the
#                            kill/restart convergence suite (controller
#                            killed at every crash point, recovered from
#                            the journal, reconciled against the surviving
#                            switch, and required to converge to the
#                            never-crashed state).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "recover" ]]; then
    echo "== go test -race (WAL corruption + recovery)"
    go test -race -v ./internal/wal/
    echo "== go test -race (kill/restart convergence suite)"
    go test -race -v -run 'TestRecover|TestJournalFullScenario|TestKillRestartConvergence|TestDepart|TestReconcile' ./internal/core/
    echo "== go test (codec fuzz corpus replay)"
    go test -run 'Fuzz|TestSkipValueDepthGuard' ./internal/p4rt/
    echo "== recovery checks passed"
    exit 0
fi
if [[ $# -gt 0 ]]; then
    echo "usage: scripts/check.sh [recover]" >&2
    exit 2
fi

echo "== go vet ./..."
go vet ./...

# The benchmark is its own module; vetting it type-checks it and its tests
# against the current APIs, so a change that breaks its build fails here.
echo "== go -C cmd/sfpbench vet ./..."
go -C cmd/sfpbench vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== all checks passed"
