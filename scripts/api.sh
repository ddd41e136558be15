#!/bin/sh
# The exported API nothing ships a call to (ROADMAP aim 2). Prints every
# exported function or method declared in non-test Go under internal/
# whose name appears in no non-test Go line of cmd/, internal/, examples/
# or bench/, as pkg.Name (pkg.Type.Name for a method). Comment lines,
# trailing // comments and the declaration lines of that name do not
# count as uses.
#
# A second pass does the same for configuration knobs: every exported
# field of a struct under internal/ whose type name is or ends in Config,
# Options or Policy, printed as pkg.Type.Field, that no non-test line of
# those trees outside the declaring file sets. A line sets a field by
# naming it as a composite-literal key (`Field:`) or by assigning it
# (`.Field =`, `.Field +=`, `.Field -=`). Both passes print into one
# list.
#
# `api.sh --check` prints nothing of its own and exits 1 when the list
# and scripts/api.allow (one `pkg.Name reason` per line) disagree: a
# printed name that is not allowed, or an allowed name that now has a
# caller or setter or no longer exists. scripts/check.sh runs the check.
#
# Blind spot: both passes match names, not types. A dead method whose
# name is also used by a call to anything else (another type's method of
# that name, a package-level function, an interface) counts as called
# and is not printed; so does a dead name that a string literal spells.
# Likewise a field counts as set when a field of that name is set on any
# type: setting topology.GraphStats.MedianLinkMs hides
# topology.GenConfig.MedianLinkMs, which only its own file sets. A label
# or a `case` of that name hides it too.
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
        function pkgOf(file,   pkg) {
            pkg = file
            sub(/^internal\//, "", pkg)
            sub(/\/[^\/]*$/, "", pkg)
            return pkg
        }
        # knob records the exported fields a line of a knob struct declares:
        # "A, B T" declares A and B; an embedded type declares nothing.
        function knob(file, line,   names, n, f, i) {
            if (line !~ /^[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)*[ \t]+[^ \t]/) return
            match(line, /^[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)*/)
            names = substr(line, 1, RLENGTH)
            n = split(names, f, /, /)
            for (i = 1; i <= n; i++)
                if (f[i] ~ /^[A-Z]/) {
                    field[pkgOf(file) "." ktype "." f[i]] = f[i]
                    home[pkgOf(file) "." ktype "." f[i]] = file
                }
        }
        # sets counts, per file, the field names a line sets.
        function sets(file, line,   rest, w) {
            rest = line
            while (match(rest, /[A-Za-z_][A-Za-z0-9_]*:([^=]|$)/)) {
                w = substr(rest, RSTART, RLENGTH)
                sub(/:.*/, "", w)
                set[w]++
                setIn[w, file]++
                rest = substr(rest, RSTART + RLENGTH - 1)
            }
            rest = line
            while (match(rest, /\.[A-Za-z_][A-Za-z0-9_]* [-+]?=( |$)/)) {
                w = substr(rest, RSTART + 1, RLENGTH - 1)
                sub(/ .*/, "", w)
                set[w]++
                setIn[w, file]++
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
        {
            file = substr($0, 1, index($0, "\t") - 1)
            line = substr($0, index($0, "\t") + 1)
            if (file != lastFile) depth = 0
            lastFile = file
            sub(/^[ \t]+/, "", line)
            if (line ~ /^\/\//) next
            sub(/[ \t]\/\/.*$/, "", line)
            sets(file, line)
            if (depth > 0) {
                if (depth == 1) knob(file, line)
                depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            } else if (file ~ /^internal\// && match(line, /^type ([A-Za-z_][A-Za-z0-9_]*)?(Config|Options|Policy) struct \{$/)) {
                ktype = line
                sub(/^type /, "", ktype)
                sub(/ .*/, "", ktype)
                depth = 1
                next
            }
            skip = ""
            d = declared(line)
            if (d != "") {
                skip = d
                sub(/.*\./, "", skip)
                if (file ~ /^internal\// && skip ~ /^[A-Z]/)
                    decl[pkgOf(file) "." d] = skip
            }
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(line, RSTART, RLENGTH)
                if (w != skip) used[w] = 1
                line = substr(line, RSTART + RLENGTH)
            }
        }
        END {
            for (q in decl) if (!(decl[q] in used)) print q
            for (q in field) if (set[field[q]] == setIn[field[q], home[q]]) print q
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
    echo "api.sh: exported, declared under internal/, called or set by no shipped code:" >&2
    sed 's/^/  /' "$tmp/new" >&2
    status=1
fi
if comm -13 "$tmp/found" "$tmp/allowed" | grep . >"$tmp/stale"; then
    echo "api.sh: in scripts/api.allow but called, set or gone (drop the line):" >&2
    sed 's/^/  /' "$tmp/stale" >&2
    status=1
fi
exit $status
