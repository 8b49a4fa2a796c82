#!/usr/bin/env bash
# bench-ab.sh BASE BENCH N compares the root package's benchmarks at git
# revision BASE with the working tree. It extracts BASE with git archive
# into .bench-ab/base (git-ignored), builds one test binary per side with
# go test -c, runs the benchmarks matching BENCH N times a side at
# -cpu 1 -benchmem, alternating the sides and which goes first, and
# prints per-side medians of ns/op, B/op and allocs/op. The raw runs are
# kept in .bench-ab/runs.txt.
set -euo pipefail
base=${1:?usage: bench-ab.sh BASE BENCH N}
bench=${2:?usage: bench-ab.sh BASE BENCH N}
n=${3:-5}
root=$(git rev-parse --show-toplevel)
dir=$root/.bench-ab
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")

rm -rf "$dir/base"
mkdir -p "$dir/base"
git -C "$root" archive "$rev" | tar -x -C "$dir/base"
(cd "$dir/base" && go test -c -o "$dir/base.test" .)
(cd "$root" && go test -c -o "$dir/head.test" .)

runs=$dir/runs.txt
: >"$runs"
for i in $(seq "$n"); do
	sides="base head"
	if [ $((i % 2)) -eq 0 ]; then sides="head base"; fi
	for side in $sides; do
		"$dir/$side.test" -test.run '^$' -test.bench "$bench" -test.benchmem -test.cpu 1 |
			awk -v side="$side" '/^Benchmark/ { print side, $1, $3, $5, $7 }' >>"$runs"
	done
done

echo "base $(git -C "$root" rev-parse --short "$rev") vs working tree, medians of $n runs a side (-cpu 1)"
awk '
function median(s,    a, k, i, j, t) {
	k = split(s, a, " ")
	for (i = 2; i <= k; i++) {
		t = a[i] + 0
		for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
	return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
{
	key = $2 SUBSEP $1
	ns[key] = ns[key] " " $3; by[key] = by[key] " " $4; al[key] = al[key] " " $5
	if (!($2 in seen)) { seen[$2] = 1; order[++names] = $2 }
}
END {
	printf "%-40s %12s %12s %7s %10s %10s %9s %9s\n", "benchmark", "base ns/op", "head ns/op", "ratio", "base B/op", "head B/op", "base alc", "head alc"
	for (i = 1; i <= names; i++) {
		b = order[i] SUBSEP "base"; h = order[i] SUBSEP "head"
		if (!(b in ns) || !(h in ns)) {
			printf "%-40s %s\n", order[i], "(on one side only)"
			continue
		}
		mb = median(ns[b]); mh = median(ns[h])
		printf "%-40s %12.0f %12.0f %7.3f %10.0f %10.0f %9.0f %9.0f\n", order[i], mb, mh, mh / mb, median(by[b]), median(by[h]), median(al[b]), median(al[h])
	}
}' "$runs"
