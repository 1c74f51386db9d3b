#!/bin/sh
# Runs one paper bench and diffs its stdout against the committed golden.
# Usage: check.sh <bench binary> <golden stdout file>
set -e
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
"$1" > "$OUT"
diff -u "$2" "$OUT"
