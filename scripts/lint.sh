#!/usr/bin/env bash
# The repo's one static gate: formatting, go vet, and the custom
# determinism/concurrency analyzers (cmd/mcs-lint). CI's lint job and
# the README quickstart both run exactly this script, so local runs and
# CI can never drift.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
out="$(gofmt -l .)"
if [ -n "$out" ]; then
  echo "gofmt needed on:" >&2
  echo "$out" >&2
  exit 1
fi

echo "== go vet =="
go vet ./...
# The benchmark harness is a nested module that compiles against the
# internal optimizer APIs; ./... does not reach it.
(cd _mcsbench && go vet .)

echo "== mcs-lint =="
# The JSON findings land in mcs-lint.json (CI uploads it as an
# artifact); the human-readable rendering follows on a failure so the
# log stays greppable.
if ! go run ./cmd/mcs-lint -json ./... > mcs-lint.json; then
  echo "mcs-lint findings:" >&2
  go run ./cmd/mcs-lint ./... >&2 || true
  exit 1
fi

echo "static gate clean"
