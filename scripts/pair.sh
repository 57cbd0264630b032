#!/usr/bin/env bash
# The pairing protocol of ROADMAP.md as a script: alternate the benchmark
# between a checkout of the parent commit and one of the change, the side
# that runs first flipped every pair, and report per end-to-end metric
# both sides' medians with quartiles, pairs won and lost, and whether the
# difference is resolved — medians apart by more than the parent's
# interquartile range AND at least nine tenths of the pairs one way (ties
# count for neither). Every run's raw result line is printed as it lands.
#
#   scripts/pair.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS
#
# Each directory is a full checkout (git clone / git archive); the bench
# builds into that checkout's own .bench_build/. Metric names and their
# better direction come from PARENT_DIR/BENCHMARK.json. PAIRS=0 prints the
# table header and exits (the CI dry run).
set -euo pipefail
if [ "$#" -ne 5 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS" >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5

header() {
	printf '%-12s %-34s %-34s %8s %9s  %s\n' metric 'parent median [q1–q3]' 'change median [q1–q3]' 'Δ' 'won/lost' verdict
}
if [ "$pairs" -eq 0 ]; then
	header
	exit 0
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
for ((i = 1; i <= pairs; i++)); do
	order="parent change"
	if ((i % 2 == 0)); then order="change parent"; fi
	for side in $order; do
		dir=$parent
		if [ "$side" = change ]; then dir=$change; fi
		line=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0 2>/dev/null | tail -n 1)
		echo "pair $i $side $line" | tee -a "$raw"
	done
done

echo
echo "$workload seed $seed, $pairs pairs"
header
awk -v pairs="$pairs" '
# quantile of the sorted v[1..n], linear interpolation between ranks
function quant(v, n, q,    h, lo) { h = (n - 1) * q + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
function sorted(src, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
function summary(v, n, out,    s) { sorted(v, n, s); out["med"] = quant(s, n, 0.5); out["q1"] = quant(s, n, 0.25); out["q3"] = quant(s, n, 0.75) }
FNR == NR { # BENCHMARK.json: the end-to-end metrics and their better direction
	if ($0 ~ /"end_to_end"/) e2e = 1
	if ($0 ~ /"per_layer"/) e2e = 0
	if (e2e && $0 ~ /"name":/) { name = $0; gsub(/.*"name": *"|".*/, "", name); names[++nm] = name }
	if (e2e && $0 ~ /"better":/) better[name] = ($0 ~ /higher/) ? 1 : -1
	next
}
{
	side = $3
	if ($0 !~ /"failed":0[,}]/ || $0 !~ /"correct":true/) bad++
	for (m = 1; m <= nm; m++) {
		if (!match($0, "\"" names[m] "\":\\{\"value\":[-+0-9.eE]+")) continue
		val = substr($0, RSTART, RLENGTH); sub(/.*:/, "", val)
		val_[side, names[m], $2] = val + 0
	}
}
END {
	for (m = 1; m <= nm; m++) {
		name = names[m]; n = 0; won = lost = 0
		for (i = 1; i <= pairs; i++) {
			if (!((("parent", name, i) in val_) && (("change", name, i) in val_))) continue
			n++; p[n] = val_["parent", name, i]; c[n] = val_["change", name, i]
			d = (c[n] - p[n]) * better[name]
			if (d > 0) won++; else if (d < 0) lost++
		}
		if (n == 0) continue
		summary(p, n, P); summary(c, n, C)
		gap = C["med"] - P["med"]; if (gap < 0) gap = -gap
		verdict = "unresolved"
		if (gap > P["q3"] - P["q1"] && won >= 0.9 * n) verdict = "resolved: better"
		if (gap > P["q3"] - P["q1"] && lost >= 0.9 * n) verdict = "resolved: worse"
		printf "%-12s %-34s %-34s %+7.1f%% %4d/%-4d  %s\n", name,
			sprintf("%.4g [%.4g–%.4g]", P["med"], P["q1"], P["q3"]), sprintf("%.4g [%.4g–%.4g]", C["med"], C["q1"], C["q3"]),
			P["med"] ? 100 * (C["med"] - P["med"]) / P["med"] : 0, won, lost, verdict
	}
	printf "runs that failed an operation or a correctness check: %d of %d\n", bad, 2 * pairs
}' "$parent/BENCHMARK.json" "$raw"
