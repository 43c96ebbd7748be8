#!/bin/sh
# determinism.sh <check> — regenerate one class of committed evidence
# and fail on any drift. The generators are deterministic at any
# worker count; the worker-sensitive checks prove it by generating at
# 1 and 8 workers and comparing the outputs against each other before
# comparing against the committed files.
#
#   results       every table `make results` regenerates
#   chaos         the fault-rate sweep (results/chaos.txt)
#   online        the online-server sweep (results/online.txt)
#   library       the tape-library sweep (results/library.txt)
#   trace         span evidence (results/trace.json, attribution.txt)
#   availability  the lifecycle-fault sweep (results/availability.txt)
#   fleet         the sharded-cluster sweep (results/fleet.txt)
#   cache         the staging-tier sweep (results/cache.txt)
#   slo           the wide-event log and its SLO report
#                 (results/events.jsonl, results/slo.txt)
#   metrics       the registry dumps of library -metrics, serve
#                 -metrics prom and chaos -metrics prom (not committed:
#                 compared across worker counts only)
#   schedbench    the Figure 4 simulation (results/fig4.txt), less its
#                 first line, which carries the elapsed wall time
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

case "${1:-}" in
results)
	make results
	git diff --exit-code results/
	;;
chaos | online | library)
	cmd=$1
	[ "$1" = online ] && cmd=serve
	go run "./cmd/$cmd" -workers 1 >"$tmp/$1-1.txt"
	go run "./cmd/$cmd" -workers 8 >"$tmp/$1-8.txt"
	cmp "$tmp/$1-1.txt" "$tmp/$1-8.txt"
	cmp "$tmp/$1-1.txt" "results/$1.txt"
	;;
trace)
	go run ./cmd/trace -workers 1 -trace "$tmp/trace-1.json" -attrib "$tmp/attrib-1.txt"
	go run ./cmd/trace -workers 8 -trace "$tmp/trace-8.json" -attrib "$tmp/attrib-8.txt"
	cmp "$tmp/trace-1.json" "$tmp/trace-8.json"
	cmp "$tmp/attrib-1.txt" "$tmp/attrib-8.txt"
	cmp "$tmp/trace-1.json" results/trace.json
	cmp "$tmp/attrib-1.txt" results/attribution.txt
	;;
availability)
	go run ./cmd/outage -workers 1 >"$tmp/avail-1.txt"
	go run ./cmd/outage -workers 8 >"$tmp/avail-8.txt"
	cmp "$tmp/avail-1.txt" "$tmp/avail-8.txt"
	cmp "$tmp/avail-1.txt" results/availability.txt
	;;
fleet)
	go run ./cmd/fleet -workers 1 >"$tmp/fleet-1.txt"
	go run ./cmd/fleet -workers 8 >"$tmp/fleet-8.txt"
	cmp "$tmp/fleet-1.txt" "$tmp/fleet-8.txt"
	cmp "$tmp/fleet-1.txt" results/fleet.txt
	;;
cache)
	go run ./cmd/cache -workers 1 >"$tmp/cache-1.txt"
	go run ./cmd/cache -workers 8 >"$tmp/cache-8.txt"
	cmp "$tmp/cache-1.txt" "$tmp/cache-8.txt"
	cmp "$tmp/cache-1.txt" results/cache.txt
	;;
slo)
	go run ./cmd/events -workers 1 -out "$tmp/events-1.jsonl"
	go run ./cmd/events -workers 8 -out "$tmp/events-8.jsonl"
	cmp "$tmp/events-1.jsonl" "$tmp/events-8.jsonl"
	cmp "$tmp/events-1.jsonl" results/events.jsonl
	go run ./cmd/slo -events "$tmp/events-1.jsonl" >"$tmp/slo.txt"
	cmp "$tmp/slo.txt" results/slo.txt
	;;
metrics)
	for run in "library -metrics" "serve -metrics prom" "chaos -metrics prom"; do
		# shellcheck disable=SC2086 # split the command from its flags
		set -- $run
		cmd=$1
		shift
		go run "./cmd/$cmd" -workers 1 "$@" >"$tmp/$cmd-1.txt"
		go run "./cmd/$cmd" -workers 8 "$@" >"$tmp/$cmd-8.txt"
		cmp "$tmp/$cmd-1.txt" "$tmp/$cmd-8.txt"
	done
	;;
schedbench)
	for w in 1 8; do
		go run ./cmd/schedbench -start random -divisor 500 -workers "$w" | tail -n +2 >"$tmp/fig4-$w.txt"
	done
	tail -n +2 results/fig4.txt >"$tmp/fig4.txt"
	cmp "$tmp/fig4-1.txt" "$tmp/fig4-8.txt"
	cmp "$tmp/fig4-1.txt" "$tmp/fig4.txt"
	;;
*)
	echo "usage: $0 {results|chaos|online|library|trace|availability|fleet|cache|slo|metrics|schedbench}" >&2
	exit 2
	;;
esac
