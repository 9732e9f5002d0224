#!/bin/sh
# The repository's one ratchet: every measured bound lives in
# scripts/floors.txt, one line per bound, "<name> min|max <value>", and
# each name starts with the group that measures it:
#
#   coverage  total statement coverage of `go test ./...`
#             (coverage.total_pct);
#   reclaim   the E17 soak's worst sweep-enabled live/written bytes ratio
#             (reclaim.live_written_ratio). RCDEPTH sets the soak depth
#             (default 128, where benchtool's growth gate also runs;
#             nightly runs 256). The table lands in BENCH_reclaim.json;
#   counts    perfbench's host-independent per-step counts,
#             counts.<workload>.<metric>, from the last JSON line of one
#             5-second traced pass per workload at seed 1, and the
#             retained heap per step (heap_kib_per_step) from one
#             5-second untraced pass, since tracing holds its own spans
#             in the heap. The script names the workloads and metrics it
#             measures (below); floors.txt must bound every pair, so a
#             deleted line fails instead of dropping its gate.
#
# Usage: scripts/ratchet.sh coverage|reclaim|counts [-record]
#
# Exit status: 1 when a bound is violated (with an ::error annotation
# on scripts/floors.txt), 2 when a measured name has no bound, a bound
# has no measurement, or a value does not parse; a measuring command
# that fails exits with its own status. The soak ratio is exact, and
# coverage and the counts move by well under 1 % run to run, so a bound
# that trips has a cause.
#
# -record checks the group's bounds first and, when they all hold,
# tightens them to this measurement: a min bound rises to the measured
# value and a max bound falls to the measured value + 10 % (0 stays 0),
# each only where that is tighter. A bound never loosens under -record;
# lowering a floor or raising a ceiling is a hand edit of floors.txt
# that needs a reason in its commit.
set -eu
cd "$(dirname "$0")/.."

floors=scripts/floors.txt
count_workloads="edit redo durable serve"
count_metrics="runtime.allocs_per_step oct.versions_per_step wal.records_per_step wal.fsyncs_per_step activity.records_per_task"
heap_metrics="heap_kib_per_step"
group=${1:-}
record=${2:-}
case "$group:$record" in
coverage: | coverage:-record | reclaim: | reclaim:-record | counts: | counts:-record) ;;
*)
	echo "usage: scripts/ratchet.sh coverage|reclaim|counts [-record]" >&2
	exit 2
	;;
esac

tmp="${TMPDIR:-/tmp}/papyrus-ratchet.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
measured="$tmp/measured"

# run LOG CMD...: runs CMD with its output in LOG, prints the log, and
# exits with CMD's status if it failed.
run() {
	log=$1
	shift
	status=0
	"$@" >"$log" 2>&1 || status=$?
	cat "$log"
	if [ "$status" -ne 0 ]; then
		echo "ratchet: $* exited $status" >&2
		exit "$status"
	fi
}

case "$group" in
coverage)
	run "$tmp/test.log" go test -count=1 -coverprofile="$tmp/cover.out" ./...
	go tool cover -func="$tmp/cover.out" |
		awk '/^total:/ { sub(/%/, "", $3); print "coverage.total_pct", $3 }' >"$measured"
	;;
reclaim)
	run "$tmp/reclaim.log" go run ./cmd/benchtool -exp reclaim -rcdepth "${RCDEPTH:-128}" \
		${GITHUB_STEP_SUMMARY:+-summary "$GITHUB_STEP_SUMMARY"}
	awk '/^reclaim: max live\/written ratio = / { print "reclaim.live_written_ratio", $6 }' \
		"$tmp/reclaim.log" >"$measured"
	;;
counts)
	# pick W METRICS LOG: prints "counts.W.<metric> <value>" for each
	# metric from perfbench's result, the last line of LOG starting with
	# "{"; every metric is "<name>":{"value":<number>,...}. A metric it
	# lacks is printed without a value, which fails below as a missing
	# measurement.
	pick() {
		awk -v w="$1" -v metrics="$2" '
			/^\{/ { last = $0 }
			END {
				n = split(metrics, m, " ")
				for (i = 1; i <= n; i++) {
					key = "\"" m[i] "\":{\"value\":"
					p = index(last, key)
					v = ""
					if (p > 0) {
						v = substr(last, p + length(key))
						v = substr(v, 1, match(v, /[,}]/) - 1)
					}
					print "counts." w "." m[i], v
				}
			}' "$3"
	}
	: >"$measured"
	for w in $count_workloads; do
		run "$tmp/$w.log" bash perfbench/run.sh --workload "$w" --seed 1 --seconds 5 --trace 1
		run "$tmp/$w.heap.log" bash perfbench/run.sh --workload "$w" --seed 1 --seconds 5 --trace 0
		pick "$w" "$count_metrics" "$tmp/$w.log" >>"$measured"
		pick "$w" "$heap_metrics" "$tmp/$w.heap.log" >>"$measured"
	done
	;;
esac

# Join the group's bounds with the measurements. Reads floors.txt, then
# the "name value" measurement lines; under -record, when every bound
# holds, writes the tightened floors file to $tmp/floors.
status=0
awk -v group="$group." -v record="$record" -v file="$floors" -v out="$tmp/floors" '
function isnum(s) { return s ~ /^-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/ }
function annotate(line, msg) {
	print "::error file=" file (line ? ",line=" line : "") "::" msg
}
function broken(line, msg) { annotate(line, msg); errs++ }
# round4 rounds a non-negative x to 4 decimals, up for a ceiling so the
# recorded bound never sits on the wrong side of the measurement.
function round4(x, up, y) {
	y = x * 10000
	return (up && int(y) < y ? int(y) + 1 : int(y)) / 10000
}
function fmt(x, s) {
	s = sprintf("%.4f", x)
	sub(/0+$/, "", s)
	sub(/\.$/, "", s)
	return s
}
FILENAME == file {
	lines[FNR] = $0
	nlines = FNR
	if ($0 ~ /^[ \t]*(#|$)/ || index($1, group) != 1)
		next
	if (NF != 3 || ($2 != "min" && $2 != "max") || !isnum($3) || ($1 in op)) {
		broken(FNR, "unparsable or duplicate bound: " $0)
		next
	}
	op[$1] = $2
	bound[$1] = $3
	at[$1] = FNR
	next
}
{
	name = $1
	value = $2
	if (!(name in op)) {
		broken(0, "no bound in " file " for measured " name)
		next
	}
	seen[name] = 1
	if (NF != 2 || !isnum(value)) {
		broken(at[name], "missing or unparsable measurement for " name ": \"" value "\"")
		next
	}
	b = bound[name]
	if ((op[name] == "min" && value + 0 < b + 0) || (op[name] == "max" && value + 0 > b + 0)) {
		annotate(at[name], name " = " value ", " (op[name] == "min" ? "below its floor " : "above its ceiling ") b)
		violated++
		next
	}
	printf "%-45s %-10s ok (%s %s)\n", name, fmt(value), op[name], b
	if (record == "")
		next
	nv = fmt(op[name] == "min" ? round4(value, 0) : round4(value * 1.1, 1))
	if ((op[name] == "min" && nv + 0 > b + 0) || (op[name] == "max" && nv + 0 < b + 0)) {
		lines[at[name]] = name " " op[name] " " nv
		tightened[name] = b " -> " nv
	}
}
END {
	for (name in op)
		if (!(name in seen))
			broken(at[name], "no measurement for " name)
	if (errs)
		exit 2
	if (violated)
		exit 1
	if (record == "")
		exit 0
	for (i = 1; i <= nlines; i++)
		print lines[i] > out
	for (name in tightened)
		printf "%-45s tightened %s\n", name, tightened[name]
}' "$floors" "$measured" || status=$?

if [ "$status" -eq 0 ] && [ -n "$record" ]; then
	mv "$tmp/floors" "$floors"
	echo "ratchet: recorded $group bounds in $floors"
fi
exit "$status"
