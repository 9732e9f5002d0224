#!/bin/sh
# Bounded-memory ratchet (the storage sibling of scripts/perfgate.sh):
# the E17 reclaim soak's worst sweep-enabled live-set-vs-total-written
# bytes ratio must stay at or under the ceiling recorded in
# scripts/reclaim_floor.txt. The soak itself hard-gates determinism —
# repeat-run identity, the sweep-on/off modulo-reclaimed version map,
# and full-log crash recovery — and
# soft-gates the ratio ceiling plus first-half-peak vs second-half-peak
# non-growth (docs/RECLAIM.md, EXPERIMENTS.md E17).
#
# CI fails when the ratio regresses; when reclamation gets tighter, run
# `scripts/reclaimgate.sh -record` and commit the lowered ceiling.
# RCDEPTH overrides the soak depth (nightly runs 256; the default 128
# keeps both soak halves containing kept-chain rounds so the growth
# gate is meaningful).
set -eu
cd "$(dirname "$0")/.."

floor_file=scripts/reclaim_floor.txt
ratio_max=$(awk '$1 == "e17_live_ratio_max" {print $2}' "$floor_file")
if [ -z "$ratio_max" ]; then
	echo "reclaimgate: missing e17_live_ratio_max in $floor_file" >&2
	exit 2
fi

depth="${RCDEPTH:-128}"
out="${TMPDIR:-/tmp}/papyrus-reclaimgate.$$.out"
trap 'rm -f "$out"' EXIT

# -record measures without the ceiling so a currently-failing gate can
# still re-baseline; a normal run hands the ceiling to benchtool, which
# still flushes the table and summary before exiting non-zero.
gates="-rcmaxratio $ratio_max"
if [ "${1:-}" = "-record" ]; then
	gates=""
fi

status=0
# shellcheck disable=SC2086 # gates is a deliberate word list
go run ./cmd/benchtool -exp reclaim \
	-rcdepth "$depth" -rcgrowth 1.05 $gates \
	-rcout BENCH_reclaim.json \
	${GITHUB_STEP_SUMMARY:+-summary "$GITHUB_STEP_SUMMARY"} \
	>"$out" 2>&1 || status=$?
cat "$out"

ratio=$(awk '/^reclaim: max live\/written ratio = /{print $6}' "$out")
echo "reclaim gate: live/written ratio ${ratio:-?} (ceiling $ratio_max, depth $depth)"

if [ "$status" -ne 0 ]; then
	msg="reclaim gate failed (see BENCH_reclaim.json)"
	if [ -n "${GITHUB_ACTIONS:-}" ]; then
		echo "::error file=scripts/reclaim_floor.txt::$msg"
	fi
	echo "$msg" >&2
	exit "$status"
fi

if [ "${1:-}" = "-record" ]; then
	if [ -z "$ratio" ]; then
		echo "reclaimgate: no 'reclaim: max live/written ratio' line to record" >&2
		exit 2
	fi
	new_max=$(awk "BEGIN{printf \"%.4f\", $ratio * 1.15}")
	echo "e17_live_ratio_max $new_max" > "$floor_file"
	echo "recorded new live/written ratio ceiling: $new_max (measured $ratio + 15% headroom)"
fi
