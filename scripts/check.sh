#!/usr/bin/env bash
# Tier-1 verification: gofmt, vet, build, and the full test suite under the
# race detector. CI and pre-merge checks run exactly this script.
#
#   scripts/check.sh         gofmt + vet (this module and the cmd/sfpbench
#                            module) + build + race tests
#   scripts/check.sh recover durability suite under -race: WAL corruption
#                            tests, the kill/restart convergence suite
#                            (controller killed at every crash point,
#                            recovered from the journal, reconciled against
#                            the surviving switch, and required to converge
#                            to the never-crashed state), recovery of the
#                            legacy JSON-record journal in testdata, and
#                            seed-corpus replay of the journal-record
#                            (internal/core) and codec (internal/p4rt) fuzz
#                            targets.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "recover" ]]; then
    echo "== go test -race (WAL corruption + recovery)"
    go test -race -timeout 5m -v ./internal/wal/
    echo "== go test -race (kill/restart convergence suite)"
    go test -race -timeout 5m -v -run 'TestRecover|TestRecoverLegacyGolden|TestLegacyJournalReencodes|TestJournalFullScenario|TestKillRestartConvergence|TestDepart|TestReconcile|TestReplayDepartManyPartialCommit|TestCrashMidGroupCommitTornTail|TestOffLockSnapshotRotation' ./internal/core/
    echo "== go test (journal record fuzz corpus replay)"
    go test -timeout 5m -run 'Fuzz|TestReplayRecordRejectsTruncation' ./internal/core/
    echo "== go test (codec fuzz corpus replay)"
    go test -timeout 5m -run 'Fuzz|TestSkipValueDepthGuard' ./internal/p4rt/
    echo "== recovery checks passed"
    exit 0
fi
if [[ $# -gt 0 ]]; then
    echo "usage: scripts/check.sh [recover]" >&2
    exit 2
fi

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# The benchmark is its own module; vetting it type-checks it and its tests
# against the current APIs, so a change that breaks its build fails here.
echo "== go -C cmd/sfpbench vet ./..."
go -C cmd/sfpbench vet ./...

echo "== go build ./..."
go build ./...

# An explicit per-package timeout: a hung test fails in minutes rather than
# at go test's 10 m default. The slowest package (placement) takes ~75 s
# under -race on 2 CPUs.
echo "== go test -race -timeout 8m ./..."
go test -race -timeout 8m ./...

echo "== all checks passed"
