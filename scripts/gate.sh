#!/usr/bin/env bash
# gate.sh — `go test` for a gate that picks its tests with -run. It takes the
# same arguments, but first every package named must list at least one test
# matching the pattern (`go test -list`), so a gate whose tests were renamed
# or deleted fails instead of passing on nothing.
#
# Usage: gate.sh [go test flags] -run PATTERN ./PKG...
set -euo pipefail
cd "$(dirname "$0")/.."

pattern=
pkgs=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	-run) i=$((i + 1)); pattern=${args[i]:-} ;;
	-run=*) pattern=${args[i]#-run=} ;;
	./*) pkgs+=("${args[i]}") ;;
	esac
done
if [ -z "$pattern" ] || [ ${#pkgs[@]} -eq 0 ]; then
	echo "gate: usage: gate.sh [go test flags] -run PATTERN ./PKG..." >&2
	exit 2
fi
for pkg in "${pkgs[@]}"; do
	listed=$(go test -list "$pattern" "$pkg")
	if ! grep -q '^\(Test\|Fuzz\|Example\|Benchmark\)' <<<"$listed"; then
		echo "gate: no test in $pkg matches -run '$pattern'" >&2
		exit 1
	fi
done
exec go test "$@"
