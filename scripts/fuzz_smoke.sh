#!/usr/bin/env bash
# fuzz_smoke.sh — run every fuzz target in the module for a few fresh inputs.
#
# The targets are discovered, not listed by hand: `go test -list '^Fuzz'`
# prints each package's fuzz targets followed by the package's "ok" line, so
# a new Fuzz function joins the smoke the moment it exists. Each target runs
# its seed corpus plus 10 fresh inputs; any failure stops the script.
set -euo pipefail
cd "$(dirname "$0")/.."

listing=$(go test -list '^Fuzz' ./...)
pairs=$(awk '/^Fuzz/ { names = names " " $1; next }
	/^ok/ { n = split(names, a, " "); for (i = 1; i <= n; i++) print $2, a[i]; names = "" }' <<<"$listing")
if [ -z "$pairs" ]; then
	echo "fuzz smoke: no fuzz targets found" >&2
	exit 1
fi

count=0
while read -r pkg target; do
	echo "--> $target ($pkg)"
	go test -run "^${target}\$" -fuzz "^${target}\$" -fuzztime 10x "$pkg" </dev/null
	count=$((count + 1))
done <<<"$pairs"
echo "fuzz smoke: $count targets passed"
