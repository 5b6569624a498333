#!/bin/sh
# lint.sh — run the full static-analysis gate locally, exactly as CI does.
#
# Three layers, in order:
#   1. go vet        — the stock toolchain analyzers;
#   2. farmlint      — the repo's own seven-analyzer suite (internal/lint)
#                      run through the `go vet -vettool` unitchecker
#                      protocol, enforcing the determinism (nodeterm),
#                      hot-path (hotpath) and heap-tie-break (seqtie)
#                      contracts plus the cross-package fact-based checks
#                      (rngsalt, unitcheck, configflow, kindflow). The
#                      vettool path exercises .vetx fact files: facts
#                      exported while analyzing a package flow to its
#                      importers, which is what makes the whole-program
#                      dead-knob/dead-kind checks decidable at the
#                      //farm:factsink package (cmd/farmsim);
#   3. staticcheck   — if installed (CI pins its version; locally the gate
#                      degrades to a notice rather than failing, so the
#                      script needs nothing beyond the Go toolchain).
#
# Usage: scripts/lint.sh [packages...]   (default ./...)
set -eu

cd "$(dirname "$0")/.."
pkgs="${*:-./...}"

echo "==> go vet" >&2
# shellcheck disable=SC2086
go vet $pkgs

echo "==> farmlint (go vet -vettool)" >&2
tool_dir="$(mktemp -d)"
trap 'rm -rf "$tool_dir"' EXIT
go build -o "$tool_dir/farmlint" ./cmd/farmlint
# shellcheck disable=SC2086
go vet -vettool="$tool_dir/farmlint" $pkgs

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck" >&2
    # shellcheck disable=SC2086
    staticcheck $pkgs
else
    echo "==> staticcheck not installed; skipped (CI runs it pinned)" >&2
fi

echo "lint clean" >&2
