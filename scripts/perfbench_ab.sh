#!/usr/bin/env bash
# A/B pairs of the repo benchmark: the merge base of HEAD and a base
# revision ("parent") against this checkout's working tree ("change").
#
# The parent is checked out with `git worktree` into a temporary
# directory outside the checkout. Each pair runs `perfbench/run.sh` once
# per side, in alternating order (odd pairs run the parent first), each
# side building into its own directory there. For every end-to-end metric
# that BENCHMARK.json names (the file is only read), the script prints
# the per-pair values, each side's median, the parent's quartiles and
# their distance (IQR), and in how many pairs the change moved in the
# metric's better direction. Runs are closed-loop with --trace 0, so the
# numbers are the benchmark's own end-to-end figures.
#
# Usage, from the repository root:
#
#   scripts/perfbench_ab.sh [--workload W] [--pairs N] [--seconds S] [--seed K] [--base REV]
#   make perfbench-ab WORKLOAD=verifyd-wide PAIRS=10 SECONDS=30 SEED=11
#
# Defaults: verifyd-wide, 10 pairs, 30 s windows, seed 1, base HEAD (so
# an uncommitted change runs against the commit it sits on; pass --base
# HEAD~1 for a committed one). The raw result lines stay in the printed
# temporary directory's results/ only while the script runs; pass
# --keep DIR to copy them to DIR. On exit, normal or not, the worktree
# and the build directories are removed and no run is left behind.
set -euo pipefail

workload=verifyd-wide pairs=10 seconds=30 seed=1 base=HEAD keep=
while [ $# -gt 0 ]; do
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--seed) seed=$2 ;;
	--base) base=$2 ;;
	--keep) keep=$2 ;;
	*)
		echo "perfbench_ab.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift 2
done
case $pairs in '' | *[!0-9]* | 0)
	echo "perfbench_ab.sh: --pairs needs a positive count" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git merge-base HEAD "$base")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perfbench-ab.XXXXXX")
running=

cleanup() {
	if [ -n "$running" ]; then
		kill -TERM -- "-$running" 2>/dev/null || true
		wait "$running" 2>/dev/null || true
	fi
	git -C "$root" worktree remove --force "$tmp/parent" 2>/dev/null || true
	git -C "$root" worktree prune
	if [ -n "$keep" ] && [ -d "$tmp/results" ]; then
		mkdir -p "$keep" && cp "$tmp"/results/*.json "$keep"/ 2>/dev/null || true
	fi
	chmod -R u+w "$tmp" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git worktree add --detach --quiet "$tmp/parent" "$rev"
mkdir -p "$tmp/results"
echo "perfbench_ab: $workload, $pairs pairs of ${seconds}s at seed $seed; parent $(git rev-parse --short "$rev"), change: the working tree at $root" >&2

# run SIDE DIR PAIR: one benchmark run in its own process group (so that
# an interrupt stops verifyd too); its result line goes to results/. The
# subshell execs setsid, so the group's id is the subshell's pid.
run() {
	local side=$1 dir=$2 pair=$3
	(cd "$dir" && CARGO_TARGET_DIR="$tmp/build-$side" exec setsid bash perfbench/run.sh \
		--workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
		>"$tmp/results/$side-$pair.out" 2>"$tmp/results/$side-$pair.err") &
	running=$!
	if ! wait "$running"; then
		running=
		echo "perfbench_ab: $side run of pair $pair failed:" >&2
		cat "$tmp/results/$side-$pair.err" >&2
		exit 1
	fi
	running=
	tail -n 1 "$tmp/results/$side-$pair.out" >"$tmp/results/$side-$pair.json"
	echo "perfbench_ab: pair $pair $side: $(jq -c '{correct, attempted, failed}' "$tmp/results/$side-$pair.json")" >&2
}

for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$tmp/parent" "$pair"
		run change "$root" "$pair"
	else
		run change "$root" "$pair"
		run parent "$tmp/parent" "$pair"
	fi
done

# One record per pair: both sides' result lines.
for pair in $(seq 1 "$pairs"); do
	jq -n --slurpfile p "$tmp/results/parent-$pair.json" --slurpfile c "$tmp/results/change-$pair.json" \
		'{parent: $p[0], change: $c[0]}'
done | jq -rs --slurpfile bench BENCHMARK.json '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def quantile(q): sort | ((length - 1) * q) as $h | ($h | floor) as $i
		| if $i + 1 < length then .[$i] + ($h - $i) * (.[$i + 1] - .[$i]) else .[$i] end;
	def fmt: if . == null then "-" elif (. | fabs) >= 100 then (. * 10 | round / 10 | tostring) else (. * 10000 | round / 10000 | tostring) end;
	. as $pairs
	| "pairs: \($pairs | length); failed operations parent \([$pairs[].parent.failed] | add), change \([$pairs[].change.failed] | add); all correct: \([$pairs[] | .parent.correct and .change.correct] | all)",
	($bench[0].end_to_end[] | . as $m
		| [$pairs[] | .parent.metrics[$m.name].value] as $p
		| [$pairs[] | .change.metrics[$m.name].value] as $c
		| select(($p | map(select(. != null)) | length) > 0)
		| ([range(0; $p | length) | select($p[.] != null and $c[.] != null)
			| if $m.better == "lower" then ($c[.] < $p[.]) else ($c[.] > $p[.]) end | select(.)] | length) as $wins
		| "\($m.name) (\($m.unit), \($m.better) is better): parent median \($p | median | fmt) [Q1 \($p | quantile(0.25) | fmt), Q3 \($p | quantile(0.75) | fmt), IQR \((($p | quantile(0.75)) - ($p | quantile(0.25))) | fmt)], change median \($c | median | fmt); better in \($wins) of \($p | length) pairs",
		"    pairs (parent -> change): \([range(0; $p | length) | "\($p[.] | fmt)->\($c[.] | fmt)"] | join("  "))")'
