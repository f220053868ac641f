#!/bin/sh
# e2e-pairs.sh BASE N WORKLOAD [SEED] — the paired end-to-end measurement
# docs/PERFORMANCE.md and the choosing-metrics rule ask of a performance
# claim: N pairs of (BASE, working tree) runs of one quakebench workload,
# alternating which side goes first, appended to
# results/e2e/<base>.seed<seed>.json and results/e2e/<base>+change.seed<seed>.json,
# then `bench -compare` on the two files and, per end-to-end metric, the
# pair table: wins, medians, quartiles. It then deletes the raw run sets
# of every other revision; pair tables are kept.
#
# BASE is exported with `git archive` into a temporary directory (no
# worktree is registered, nothing is left behind in .git); the change is
# whatever the working tree holds. Both sides run their own bench/ and
# build their own quaked.
set -eu

base=${1:?usage: e2e-pairs.sh BASE N WORKLOAD [SEED]}
n=${2:?number of pairs}
workload=${3:?workload name}
seed=${4:-1}
seconds=${SECONDS_PER_RUN:-20}

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --short "$base")
out=$root/results/e2e
mkdir -p "$out"
a=$out/$rev.seed$seed.json
b=$out/$rev+change.seed$seed.json
pairs=$out/$rev.$workload.seed$seed.pairs.tsv

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
git -C "$root" archive "$base" | tar -x -C "$tmp"

metrics="setup_s solve_p50_ms solves_per_s cpu_ms_per_solve peak_rss_mb"

# one SIDE DIR FILE: run the workload once in DIR, append the record to
# FILE, print the five end-to-end values on one line.
one() {
	(cd "$2" && go run ./bench -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 -out "$3") |
		awk -v metrics="$metrics" '
			BEGIN { k = split(metrics, want, " ") }
			{ for (i = 1; i <= k; i++) if ($1 == want[i]) v[want[i]] = $2 }
			END { for (i = 1; i <= k; i++) printf "%s%s", v[want[i]], (i < k ? "\t" : "\n") }'
}

[ -s "$pairs" ] || printf 'pair\tfirst\tside\t%s\n' "$(echo $metrics | tr ' ' '\t')" >"$pairs"
done_pairs=$(awk -F'\t' 'NR > 1 && $1 > m { m = $1 } END { print m + 0 }' "$pairs")
i=$((done_pairs + 1))
while [ "$i" -le $((done_pairs + n)) ]; do
	if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
	for side in $order; do
		if [ "$side" = base ]; then dir=$tmp file=$a; else dir=$root file=$b; fi
		printf '%s\t%s\t%s\t%s\n' "$i" "${order%% *}" "$side" "$(one "$side" "$dir" "$file")" | tee -a "$pairs"
	done
	i=$((i + 1))
done

(cd "$root" && go run ./bench -compare "$a" "$b") || true

# Retention: the raw run sets (<rev>[+change].seed<n>.json) of every other
# revision go and the pair tables (*.pairs.tsv) stay. Traced runs
# (*.traced.*, recorded by hand with -trace 1) are not this script's to
# delete: one is kept while it is the newest revision's or a doc cites
# it, and removed by hand once neither holds.
for f in "$out"/*.seed*.json; do
	case ${f##*/} in
	*.traced.* | "$rev".seed*.json | "$rev"+change.seed*.json) ;;
	*) rm -f "$f" ;;
	esac
done

# The pair rule: the change wins a pair on a metric when its value is the
# better one of that pair (ties count for neither side).
awk -F'\t' -v metrics="$metrics" '
	function quart(arr, m, q,    pos, lo) { pos = q * (m + 1); lo = int(pos); if (lo < 1) return arr[1]; if (lo >= m) return arr[m]; return arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo]) }
	function sorted(src, dst, m,    i, j, t) { for (i = 1; i <= m; i++) dst[i] = src[i]; for (i = 2; i <= m; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
	NR == 1 { for (c = 4; c <= NF; c++) name[c] = $c; next }
	{ for (c = 4; c <= NF; c++) val[$3, $1, c] = $c; if ($1 > pairs) pairs = $1 }
	END {
		printf "\n%-18s %5s %12s %12s %12s %8s  (%d pairs, base → change)\n", "metric", "wins", "base median", "base IQR", "chg median", "chg/base", pairs
		for (c = 4; c in name; c++) {
			higher = (name[c] == "solves_per_s"); wins = 0; losses = 0
			for (p = 1; p <= pairs; p++) {
				x = val["base", p, c]; y = val["change", p, c]; A[p] = x; B[p] = y
				if (higher ? y > x : y < x) wins++; else if (y != x) losses++
			}
			sorted(A, SA, pairs); sorted(B, SB, pairs)
			printf "%-18s %2d/%-2d %12.6g %12.6g %12.6g %8.3f\n", name[c], wins, wins + losses, quart(SA, pairs, 0.5), quart(SA, pairs, 0.75) - quart(SA, pairs, 0.25), quart(SB, pairs, 0.5), quart(SB, pairs, 0.5) / quart(SA, pairs, 0.5)
		}
	}' "$pairs"
