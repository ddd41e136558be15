#!/bin/sh
# The size figure every ROADMAP re-anchor quotes: non-test Go lines
# outside bench/ (aim 2 is judged on it), then test Go lines outside
# bench/. Informational: no threshold, so the number is reproduced
# rather than re-derived by hand.
set -eu
cd "$(dirname "$0")/.."
count() { find . -name '*.go' -not -path './bench/*' "$@" -print0 | xargs -0 cat | wc -l; }
echo "non-test Go outside bench/: $(count -not -name '*_test.go')"
echo "test Go outside bench/:     $(count -name '*_test.go')"
