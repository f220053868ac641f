#!/bin/sh
# results-check.sh — hold both table generators to the files under
# results/: the root benchmarks (`go test -bench . -benchtime=1x .`, which
# rewrite results/ in the tree they run in) and `quakerepro` (default
# flags) each run against a temporary copy, and every table either one
# writes must come out byte-identical to the one in this tree. Only the
# two tables that carry timings are excluded, by name. A table that
# drifts, or one a generator writes that is not in results/, is named in
# the diff output and the exit status is non-zero.
#
# The copy is this tree as it stands — tracked and untracked-unignored
# files, without what the working tree deleted — so an uncommitted change
# is checked as it will be committed, and nothing is written here.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

timed="-x ablation_ordering.txt -x eq12_measured_tf.txt"

mkdir "$tmp/tree"
git ls-files --cached --others --exclude-standard | while read -r f; do
	[ -f "$f" ] && echo "$f"
done | tar -c -T - | tar -x -C "$tmp/tree"
cp -r results "$tmp/repro"

(cd "$tmp/tree" && go test -run '^$' -bench . -benchtime=1x .) >"$tmp/bench.log" 2>&1 || {
	cat "$tmp/bench.log"
	exit 1
}
go run ./cmd/quakerepro -out "$tmp/repro" >/dev/null

status=0
# shellcheck disable=SC2086 # $timed is a list of options
diff -r -u $timed results "$tmp/tree/results" || status=1
# shellcheck disable=SC2086
diff -r -u $timed results "$tmp/repro" || status=1
if [ "$status" -ne 0 ]; then
	echo "results-check: FAIL — a generator no longer reproduces the tables named above" >&2
	exit 1
fi
echo "results-check: ok — the benchmarks and quakerepro reproduce results/*.txt (timing tables excluded)"
