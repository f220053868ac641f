#!/bin/sh
# results-check.sh — hold results/ to its one generator, quakerepro
# (internal/quake's Catalogue), and keep every other command out of it:
#
#  1. quakerepro with default flags runs into a temporary directory;
#     every table it writes must be byte-identical to the one in
#     results/.
#  2. the timed tables (ablation_ordering, eq12_measured_tf: host
#     timings, made only when named) must still be made, and every
#     results/*.txt must be a table quakerepro writes or one on the
#     allowlist below, which names the command that regenerates it.
#     results/e2e/ holds measurement records, not tables, and is not
#     checked.
#  3. the root benchmarks (`go test -run '^$' -bench . -benchtime=1x .`)
#     run in a temporary copy of this tree and must leave its results/
#     as they found it: benchmarks time, they write no table.
#
# The copy is this tree as it stands — tracked and untracked-unignored
# files, without what the working tree deleted — so an uncommitted
# change is checked as it will be committed, and nothing is written
# here. Every failure is named; the exit status is non-zero if any.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

timed=ablation_ordering,eq12_measured_tf

# Tables of the whole family with the genuine 2.4M-node sf1 (several
# GB, minutes): no default run writes them. One line each: the file,
# then the command that regenerates it (quakerepro names its output
# after the table, so the file is renamed).
full='fig2_mesh_sizes_full.txt	quakerepro -scenarios sf10,sf5,sf2,sf1 -only fig2_mesh_sizes -out DIR && mv DIR/fig2_mesh_sizes.txt results/fig2_mesh_sizes_full.txt
fig6_beta_full.txt	quakerepro -scenarios sf10,sf5,sf2,sf1 -only fig6_beta -out DIR && mv DIR/fig6_beta.txt results/fig6_beta_full.txt
fig7_properties_full.txt	quakerepro -scenarios sf10,sf5,sf2,sf1 -only fig7_properties -out DIR && mv DIR/fig7_properties.txt results/fig7_properties_full.txt'

status=0
fail() {
	echo "results-check: $*" >&2
	status=1
}

go build -o "$tmp/quakerepro" ./cmd/quakerepro
"$tmp/quakerepro" -out "$tmp/repro" >/dev/null
"$tmp/quakerepro" -only "$timed" -out "$tmp/timed" >/dev/null

for f in "$tmp"/repro/*; do
	name=${f##*/}
	if [ ! -f "results/$name" ]; then
		fail "quakerepro writes $name, which results/ does not hold"
	elif ! cmp -s "$f" "results/$name"; then
		diff -u "results/$name" "$f" || true
		fail "results/$name drifted from what quakerepro writes"
	fi
done

for f in results/*.txt; do
	name=${f##*/}
	[ -f "$tmp/repro/$name" ] || [ -f "$tmp/timed/$name" ] && continue
	if printf '%s\n' "$full" | cut -f1 | grep -qx "$name"; then
		continue
	fi
	fail "results/$name is written by no generator (not a quakerepro table, not on the allowlist)"
done

mkdir "$tmp/tree"
git ls-files --cached --others --exclude-standard | while read -r f; do
	[ -f "$f" ] && echo "$f"
done | tar -c -T - | tar -x -C "$tmp/tree"
cp -r "$tmp/tree/results" "$tmp/before"
if (cd "$tmp/tree" && go test -run '^$' -bench . -benchtime=1x .) >"$tmp/bench.log" 2>&1; then
	diff -r -q "$tmp/before" "$tmp/tree/results" ||
		fail "the root benchmarks changed results/ (above)"
else
	cat "$tmp/bench.log"
	fail "the root benchmarks failed"
fi

if [ "$status" -ne 0 ]; then
	echo "results-check: FAIL" >&2
	exit 1
fi
echo "results-check: ok — quakerepro reproduces results/*.txt (timed tables made, not diffed), every table has a generator, and the benchmarks write nothing"
