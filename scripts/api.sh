#!/bin/sh
# The exported API nothing ships a call to (ROADMAP aim 2). Prints every
# exported function or method declared in non-test Go under internal/
# whose name appears in no non-test Go line of cmd/, internal/, examples/
# or bench/, as pkg.Name (pkg.Type.Name for a method). Comment lines,
# trailing // comments and the declaration lines of that name do not
# count as uses. `api.sh --check` prints nothing of its own and exits 1
# when the list and scripts/api.allow (one `pkg.Name reason` per line)
# disagree: a printed name that is not allowed, or an allowed name that
# now has a caller or no longer exists. scripts/check.sh runs the check.
#
# Blind spot: the scan matches names, not types. A dead method whose
# name is also used by a call to anything else (another type's method of
# that name, a package-level function, an interface) counts as called
# and is not printed; so does a dead name that a string literal spells.
set -eu
cd "$(dirname "$0")/.."

scan() {
    # Each line goes through tagged with its file, so that however xargs
    # splits the file list, one awk sees every line before its END.
    find cmd internal examples bench -name '*.go' ! -name '*_test.go' | sort |
        xargs awk '{ print FILENAME "\t" $0 }' | awk '
        function declared(line,   recv, f, n, name) {
            # "func Name(" or "func (r *T[P]) Name(" → "Name" / "T.Name"
            if (line !~ /^func /) return ""
            sub(/^func /, "", line)
            recv = ""
            if (line ~ /^\(/) {
                recv = line
                sub(/\).*/, "", recv)
                sub(/^\(/, "", recv)
                n = split(recv, f, /[ *]+/)
                recv = f[n]
                sub(/\[.*/, "", recv)
                sub(/^\([^)]*\) /, "", line)
            }
            if (!match(line, /^[A-Za-z_][A-Za-z0-9_]*/)) return ""
            name = substr(line, 1, RLENGTH)
            return recv == "" ? name : recv "." name
        }
        {
            file = substr($0, 1, index($0, "\t") - 1)
            line = substr($0, index($0, "\t") + 1)
            sub(/^[ \t]+/, "", line)
            if (line ~ /^\/\//) next
            sub(/[ \t]\/\/.*$/, "", line)
            skip = ""
            d = declared(line)
            if (d != "") {
                skip = d
                sub(/.*\./, "", skip)
                if (file ~ /^internal\// && skip ~ /^[A-Z]/) {
                    pkg = file
                    sub(/^internal\//, "", pkg)
                    sub(/\/[^\/]*$/, "", pkg)
                    decl[pkg "." d] = skip
                }
            }
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(line, RSTART, RLENGTH)
                if (w != skip) used[w] = 1
                line = substr(line, RSTART + RLENGTH)
            }
        }
        END {
            for (q in decl) if (!(decl[q] in used)) print q
        }' | sort
}

if [ "${1:-}" != "--check" ]; then
    scan
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
scan >"$tmp/found"
grep -v '^#' scripts/api.allow | awk 'NF { print $1 }' | sort >"$tmp/allowed"
status=0
if comm -23 "$tmp/found" "$tmp/allowed" | grep . >"$tmp/new"; then
    echo "api.sh: exported, declared under internal/, called by no shipped code:" >&2
    sed 's/^/  /' "$tmp/new" >&2
    status=1
fi
if comm -13 "$tmp/found" "$tmp/allowed" | grep . >"$tmp/stale"; then
    echo "api.sh: in scripts/api.allow but called or gone (drop the line):" >&2
    sed 's/^/  /' "$tmp/stale" >&2
    status=1
fi
exit $status
