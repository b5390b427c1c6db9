#!/usr/bin/env bash
# CI gate over the layered benchmark: a short untraced run of each of the
# four workloads, from the checkout root:
#
#   bash scripts/bench-gate.sh
#
# A workload fails when bench/run.sh exits non-zero (its conservation and
# validity checks), when a deterministic workload's decision digest
# differs from bench/baseline.json, or when a result-line metric is past
# its limit below. The limits are about half the 20 s medians measured on
# a 2-vCPU machine for events_per_s and twice them for the p50 latencies,
# so a 2x collapse of any workload fails; the bench already scales these
# timings to its reference speed. Every workload runs, and every value is
# printed against its limit, before the script exits.
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# workload, digest checked, events_per_s >=, wait_p50_ms <=, side_p50_ms <=
limits=(
	"stream-deep yes 4080 0.212 0.142"
	"stream-wide yes 5540 0.1129 0.0895"
	"cluster-rpc no 3490 0.319 0.409"
	"batch-solve yes 74000 7.5 3.1"
)

failed=0
report=()
# verdict records one row of the report and whether it passed.
verdict() {
	local ok="$1" line
	line="$(printf '%-12s %-13s %18s %2s %-9s' "$2" "$3" "$4" "$5" "$6")"
	if [ "$ok" = 1 ]; then
		report+=("$line ok")
	else
		report+=("$line FAIL")
		failed=1
	fi
}

for row in "${limits[@]}"; do
	read -r w digest events wait side <<<"$row"
	log="$out/$w.txt"
	if bash "$root/bench/run.sh" --workload "$w" --seed 1 --seconds 2 --trace 0 >"$log" 2>&1; then
		verdict 1 "$w" run.sh "exit 0" == 0
	else
		verdict 0 "$w" run.sh "exit $?" == 0
	fi
	cat "$log"
	if [ "$digest" = yes ]; then
		if grep -q '"decisions_identical":true' "$log"; then
			verdict 1 "$w" digest identical == baseline
		else
			verdict 0 "$w" digest differs == baseline
		fi
	fi
	result="$(tail -n 1 "$log")"
	for check in "events_per_s >= $events" "wait_p50_ms <= $wait" "side_p50_ms <= $side"; do
		read -r name op limit <<<"$check"
		value="$(grep -o "\"$name\":{\"value\":[^,}]*" <<<"$result" | sed 's/.*://')"
		if [ -n "$value" ] && awk -v v="$value" -v l="$limit" -v op="$op" \
			'BEGIN { exit !((op == ">=" && v >= l) || (op == "<=" && v <= l)) }'; then
			verdict 1 "$w" "$name" "$value" "$op" "$limit"
		else
			verdict 0 "$w" "$name" "${value:-missing}" "$op" "$limit"
		fi
	done
done
echo
printf '%s\n' "${report[@]}"
if [ "$failed" -ne 0 ]; then
	echo "bench gate: FAIL"
	exit 1
fi
echo "bench gate: ok"
