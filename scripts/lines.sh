#!/bin/sh
# lines.sh [REV] — the ruler ROADMAP aim 2 asks every PR to report with:
# non-test, non-generated Go lines per package, and the total. With REV
# it measures that revision's committed files instead of the working
# tree, so `sh scripts/lines.sh HEAD~1` and `sh scripts/lines.sh` are the
# before and after of a change.
#
# Every line of a file counts, comments and blanks included: moving code
# into a test file or stripping its comments is not a reduction, and the
# count should not reward it.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"

if [ $# -ge 1 ]; then
	list() { git ls-tree -r --name-only "$1"; }
	show() { git show "$1:$2"; }
	rev=$1
else
	list() { git ls-files --cached --others --exclude-standard; }
	show() { cat "$2"; }
	rev=
fi

list "$rev" | grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
	[ -n "$rev" ] || [ -f "$f" ] || continue # deleted in the working tree
	show "$rev" "$f" | awk -v f="$f" '
		NR <= 5 && /^\/\/ Code generated .* DO NOT EDIT\.$/ { generated = 1 }
		END { if (!generated) { n = split(f, parts, "/"); dir = (n > 1) ? substr(f, 1, length(f) - length(parts[n]) - 1) : "."; print dir, NR } }'
done | awk '
	{ lines[$1] += $2; total += $2 }
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
