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
# those trees outside the declaring file sets. Setters resolve to their
# struct type: a composite-literal key `Field:` sets pkg.Type.Field only
# inside a `Type{…}` literal (`pkg.Type{…}` from another package, or an
# element of a `[]Type{…}` or `map[K]Type{…}` literal whose type is
# elided), and an assignment `.Field =` (or `+=`, `-=`) sets it only in
# a file that names Type (as `pkg.Type` outside pkg). Both passes print
# into one list.
#
# `api.sh --check` prints nothing of its own and exits 1 when the list
# and scripts/api.allow (one `pkg.Name reason` per line) disagree: a
# printed name that is not allowed, or an allowed name that now has a
# caller or setter or no longer exists. scripts/check.sh runs the check.
#
# Blind spot: the function pass matches names, not types. A dead method
# whose name is also used by a call to anything else (another type's
# method of that name, a package-level function, an interface) counts
# as called and is not printed; so does a dead name that a string
# literal spells. The knob pass trusts a file that names a struct type
# with every `.Field =` of that field name in it, whatever the variable's
# type; an assignment in a file that reaches the struct only through a
# value whose type it never spells counts for nothing, so the field is
# printed although it is set. A literal key is read only from gofmt's
# layout: `Type{` with no space before the brace.
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
        # strip blanks out the string and rune literals of a line, so that
        # braces and keys inside them are not read as code; inRaw carries
        # a raw string across lines.
        function strip(s,   out, c, i, n) {
            out = ""
            if (inRaw) {
                i = index(s, "`")
                if (i == 0) return ""
                s = substr(s, i + 1)
                inRaw = 0
            }
            while (match(s, /["\047`]/)) {
                out = out substr(s, 1, RSTART - 1) " "
                c = substr(s, RSTART, 1)
                s = substr(s, RSTART + 1)
                if (c == "`") {
                    i = index(s, "`")
                    if (i == 0) {
                        inRaw = 1
                        return out
                    }
                    s = substr(s, i + 1)
                    continue
                }
                n = length(s)
                for (i = 1; i <= n; i++) {
                    if (substr(s, i, 1) == "\\") i++
                    else if (substr(s, i, 1) == c) break
                }
                s = substr(s, i + 1)
            }
            return out s
        }
        # litType names what a "{" at the end of pre opens: "pkg.Type" for
        # a literal of a named type, "[]pkg.Type" for a slice, array or map
        # literal whose elements are pkg.Type (and may elide it), "" for a
        # block or anything else.
        function litType(file, pre,   m, elems) {
            if (match(pre, /(\][*]*)?([A-Za-z_][A-Za-z0-9_]*\.)?[A-Za-z_][A-Za-z0-9_]*$/)) {
                m = substr(pre, RSTART, RLENGTH)
                elems = m ~ /^\]/
                sub(/^\][*]*/, "", m)
                if (m == "struct" || m == "interface") return ""
                if (index(m, ".") == 0) m = pkgOf(file) "." m
                return (elems ? "[]" : "") m
            }
            if (pre ~ /(^|[{,:])[ \t]*$/ && sp > 0 && stack[sp] ~ /^\[\]/)
                return substr(stack[sp], 3)
            return ""
        }
        # sets records what a line sets: a literal key against the type of
        # the literal it is in (stack holds one entry per open brace of
        # the file), an assigned field name against the file. It also
        # records the types the file names, as pkg.Type.
        function sets(file, line,   s, pre, tok, w) {
            s = strip(line)
            pre = ""
            line = s
            while (match(s, /[{}]|[A-Za-z_][A-Za-z0-9_]*:/)) {
                tok = substr(s, RSTART, RLENGTH)
                w = substr(s, 1, RSTART - 1)
                s = substr(s, RSTART + RLENGTH)
                if (tok == "{")
                    stack[++sp] = litType(file, pre w)
                else if (tok == "}") {
                    if (sp > 0) sp--
                } else if (substr(s, 1, 1) != "=" && w !~ /\.$/ && sp > 0 && stack[sp] != "" && stack[sp] !~ /^\[\]/)
                    litSet[stack[sp] "." substr(tok, 1, length(tok) - 1), file] = 1
                pre = pre w tok
            }
            s = line
            while (match(s, /\.[A-Za-z_][A-Za-z0-9_]* [-+]?=( |$)/)) {
                w = substr(s, RSTART + 1, RLENGTH - 1)
                sub(/ .*/, "", w)
                assigned[w, file] = 1
                s = substr(s, RSTART + RLENGTH)
            }
            s = line
            while (match(s, /[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?/)) {
                w = substr(s, RSTART, RLENGTH)
                named[file, index(w, ".") ? w : pkgOf(file) "." w] = 1
                s = substr(s, RSTART + RLENGTH)
            }
        }
        {
            file = substr($0, 1, index($0, "\t") - 1)
            line = substr($0, index($0, "\t") + 1)
            if (file != lastFile) {
                depth = 0
                sp = 0
                inRaw = 0
            }
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
            for (kf in litSet) {
                split(kf, a, SUBSEP)
                if ((a[1] in home) && a[2] != home[a[1]]) isSet[a[1]] = 1
            }
            for (kf in assigned) {
                split(kf, a, SUBSEP)
                for (q in field) {
                    if (field[q] != a[1] || a[2] == home[q]) continue
                    t = q
                    sub(/\.[^.]*$/, "", t)
                    if ((a[2], t) in named) isSet[q] = 1
                }
            }
            for (q in field) if (!(q in isSet)) print q
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
