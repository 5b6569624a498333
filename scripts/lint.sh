#!/bin/sh
# lint.sh — run the full static-analysis gate locally, exactly as CI does.
#
# Three layers, in order:
#   1. go vet        — the stock toolchain analyzers;
#   2. farmlint      — the repo's own six-analyzer suite (internal/lint),
#                      enforcing the determinism (nodeterm) and hot-path
#                      (hotpath) contracts plus the cross-package
#                      fact-based checks (rngsalt, unitcheck, configflow,
#                      kindflow). Facts exported while analyzing a package
#                      flow to its importers, which is what makes the
#                      whole-program dead-knob/dead-kind checks decidable
#                      at the //farm:factsink package (cmd/farmsim);
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

echo "==> farmlint" >&2
# shellcheck disable=SC2086
go run ./cmd/farmlint $pkgs

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck" >&2
    # shellcheck disable=SC2086
    staticcheck $pkgs
else
    echo "==> staticcheck not installed; skipped (CI runs it pinned)" >&2
fi

echo "lint clean" >&2
