#!/usr/bin/env bash
# The pairing protocol of ROADMAP.md as a script: alternate the benchmark
# between a checkout of the parent commit and one of the change, the side
# that runs first flipped every pair, and report per end-to-end metric
# both sides' medians with quartiles, pairs won and lost, and whether the
# difference is resolved — medians apart by more than the parent's
# interquartile range AND at least nine tenths of the pairs one way (ties
# count for neither). Beside won/lost stands the two-sided sign-test p of
# that split: the chance of a split at least that lopsided if each pair
# were a fair coin, ties dropped (10/0 reads 0.002, 9/1 0.021, 8/2 0.11);
# it does not enter the verdict. Every run's raw result line is printed as
# it lands.
#
#   scripts/pair.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS
#
# Each directory is a full checkout (git clone / git archive). Before every
# run the script copies that run's checkout, without .git and .bench_build,
# into one temporary directory, and the bench builds and runs there: both
# sides build from the same path (a binary embeds its source paths) and
# share one build cache and one .bench_build. Each side makes one
# discarded warm-up run before pair 1. Every run's line carries the
# sha256 of the anmat-server it built; when the two checkouts hold the
# same tree (an A/A test) the script fails unless every run built the
# same binary. Metric names and their better direction come from
# PARENT_DIR/BENCHMARK.json. PAIRS=0 prints the table header and exits
# (the CI dry run).
#
# The machine's CPU steal and iowait ticks (/proc/stat) are read before
# and after every run, and each run's line carries their shares of all
# CPU ticks in its window. Stolen time is time the neighbours of a shared
# host took, which moves both sides' numbers. A pair where either run's
# steal share is above MAX_STEAL is dropped and run again, up to
# MAX_RERUNS times in a series; one more such pair makes the series void:
# the script stops, reports what landed, and exits non-zero (3), whatever
# the table says. On the 2-vCPU box the bench was run on, an idle 5 s
# window read 3 % steal and the worst hours ≈ 20 %.
set -euo pipefail
MAX_STEAL=0.10
MAX_RERUNS=5
if [ "$#" -ne 5 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS" >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5

header() {
	printf '%-12s %-34s %-34s %8s %9s %6s  %s\n' metric 'parent median [q1–q3]' 'change median [q1–q3]' 'Δ' 'won/lost' 'p' verdict
}
if [ "$pairs" -eq 0 ]; then
	header
	exit 0
fi

raw=$(mktemp)
arm=$(mktemp -d)
trap 'rm -rf "$raw" "$arm"' EXIT
same_tree=0
if diff -rq -x .git -x .bench_build "$parent" "$change" >/dev/null; then same_tree=1; fi

# cpu_ticks prints the machine's cumulative steal, iowait and total CPU
# ticks (0 0 0 where /proc/stat cannot be read).
cpu_ticks() {
	awk '/^cpu / { for (i = 2; i <= 9; i++) t += $i; print $9, $6, t; found = 1; exit }
		END { if (!found) print 0, 0, 0 }' /proc/stat 2>/dev/null || echo 0 0 0
}

# run SIDE: copy SIDE's checkout into $arm (keeping $arm/.bench_build),
# run the bench there, and print the built server's hash, the run's CPU
# steal and iowait shares, and the bench's last line.
run() {
	local dir=$parent
	if [ "$1" = change ]; then dir=$change; fi
	find "$arm" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
	tar -C "$dir" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$arm" -xf -
	local line before after shares
	before=$(cpu_ticks)
	line=$(cd "$arm" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0 2>/dev/null | tail -n 1)
	after=$(cpu_ticks)
	shares=$(awk -v a="$before" -v b="$after" 'BEGIN {
		split(a, x, " "); split(b, y, " "); d = y[3] - x[3]
		if (d <= 0) d = 1
		printf "steal=%.4f iowait=%.4f", (y[1] - x[1]) / d, (y[2] - x[2]) / d
	}')
	echo "sha256=$(sha256sum "$arm/.bench_build/bin/anmat-server" | cut -d" " -f1) $shares $line"
}

# stolen LINE... prints the largest steal share of the given run lines.
stolen() {
	printf '%s\n' "$@" | awk '{ for (f = 1; f <= NF; f++) if ($f ~ /^steal=/ && substr($f, 7) + 0 > top) top = substr($f, 7) + 0 } END { printf "%.4f", top }'
}

for side in parent change; do
	echo "warm-up $side $(run $side)"
done
reruns=0 void=""
for ((i = 1; i <= pairs; i++)); do
	order="parent change"
	if ((i % 2 == 0)); then order="change parent"; fi
	lines=()
	for side in $order; do
		lines+=("pair $i $side $(run "$side")")
		echo "${lines[-1]}"
	done
	top=$(stolen "${lines[@]}")
	if awk -v s="$top" -v max="$MAX_STEAL" 'BEGIN { exit !(s > max) }'; then
		if ((reruns == MAX_RERUNS)); then
			void="pair $i read steal $top after $reruns re-run pairs (budget $MAX_RERUNS)"
			break
		fi
		reruns=$((reruns + 1))
		echo "pair $i dropped: steal $top above $MAX_STEAL; running it again ($reruns of $MAX_RERUNS)"
		i=$((i - 1))
		continue
	fi
	printf '%s\n' "${lines[@]}" >>"$raw"
done

echo
echo "$workload seed $seed, $pairs pairs ($reruns re-run for steal above $MAX_STEAL)"
header
awk -v pairs="$pairs" '
# quantile of the sorted v[1..n], linear interpolation between ranks
function quant(v, n, q,    h, lo) { h = (n - 1) * q + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
function sorted(src, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
# signp: the two-sided sign-test p of won against lost, ties dropped:
# twice the binomial(won+lost, 1/2) tail at the smaller count, at most 1.
function signp(won, lost,    n, k, i, term, tail) {
	n = won + lost; k = won < lost ? won : lost
	if (n == 0) return 1
	term = 2 ^ -n; tail = term
	for (i = 1; i <= k; i++) { term *= (n - i + 1) / i; tail += term }
	return 2 * tail < 1 ? 2 * tail : 1
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
	side = $3; runs++
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
		printf "%-12s %-34s %-34s %+7.1f%% %4d/%-4d %6.3g  %s\n", name,
			sprintf("%.4g [%.4g–%.4g]", P["med"], P["q1"], P["q3"]), sprintf("%.4g [%.4g–%.4g]", C["med"], C["q1"], C["q3"]),
			P["med"] ? 100 * (C["med"] - P["med"]) / P["med"] : 0, won, lost, signp(won, lost), verdict
	}
	printf "runs that failed an operation or a correctness check: %d of %d\n", bad, runs
}' "$parent/BENCHMARK.json" "$raw"

# The median and the largest steal share, and the median iowait share,
# of the measured runs.
steal=$(awk '
function median(v, n,    i, j, t) {
	for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
	return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
{
	n++
	for (f = 1; f <= NF; f++) {
		if ($f ~ /^steal=/) { s[n] = substr($f, 7) + 0; if (s[n] > top) top = s[n] }
		if ($f ~ /^iowait=/) w[n] = substr($f, 8) + 0
	}
}
END {
	printf "CPU steal share: median %.4f, max %.4f; iowait share: median %.4f\n", median(s, n), top, median(w, n)
}' "$raw")
echo "$steal"
if [ -n "$void" ]; then echo "void: $void"; fi

hashes=$(awk '{print $4}' "$raw" | sort -u | wc -l)
if [ "$same_tree" -eq 1 ]; then
	echo "A/A: the two checkouts hold the same tree; the runs built $hashes distinct anmat-server binaries"
	if [ "$hashes" -gt 1 ]; then exit 1; fi
fi
if [ -n "$void" ]; then exit 3; fi
