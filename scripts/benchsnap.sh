#!/bin/sh
# benchsnap.sh — run the benchmark briefly and check its virtual-time
# outputs exactly against the committed snapshot.
#
# Each workload's six virtual-time metrics (served_frac,
# retrievals_per_h, sojourn_p50_s, sojourn_p99_s, slo_met_frac,
# max_rate_per_h) are deterministic functions of the seed: they do not
# depend on host speed or on how many passes fit in the timed phase, so
# a one-second run reproduces them bit for bit. A change that moves any
# of the 18 values changed what the simulator computes.
#
#   sh scripts/benchsnap.sh
#
# On a deliberate change, the script prints the new snapshot; commit it
# as scripts/benchsnap.txt together with the change that explains it.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 >"$tmp/run.txt"
tail -n 1 "$tmp/run.txt" | python3 -c '
import json, sys
virtual = ("served_frac", "retrievals_per_h", "sojourn_p50_s",
           "sojourn_p99_s", "slo_met_frac", "max_rate_per_h")
res = json.load(sys.stdin)
if not res["correct"] or res["failed"]:
    sys.exit("benchsnap: the benchmark reported a failed run")
for key in sorted(res["metrics"]):
    if key.split("/")[-1] in virtual:
        print(key, repr(float(res["metrics"][key]["value"])))
' >"$tmp/snap.txt"

if ! diff -u scripts/benchsnap.txt "$tmp/snap.txt"; then
	echo "benchsnap: virtual-time outputs drifted; the new snapshot is:" >&2
	cat "$tmp/snap.txt" >&2
	exit 1
fi
echo "benchsnap: $(wc -l <"$tmp/snap.txt") virtual-time values match"
