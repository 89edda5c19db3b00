#!/usr/bin/env bash
# CPU and allocation profiles of verifyd while it serves the verifyd-wide
# benchmark window.
#
# The script runs `perfbench/run.sh --workload verifyd-wide --trace 0`
# from this checkout, building into a temporary directory outside it. The
# run starts several verifyd servers: one per set-up, each stopped before
# the next starts, and the last one serves the timed window. Once that
# server is up and warmed, the script takes a CPU profile of SECONDS
# seconds from its /debug/pprof/profile, then its allocation profile
# (/debug/pprof/allocs: everything allocated since it started), and
# writes both to OUT with `go tool pprof -top -cum` summaries:
#
#   OUT/cpu.pprof      OUT/cpu.top.txt      (CPU samples)
#   OUT/allocs.pprof   OUT/allocs.top.txt   (allocated bytes, alloc_space)
#   OUT/run.json       the run's result line
#
# The window lasts SECONDS + 10 s, so the profile falls inside it.
#
# Usage, from the repository root:
#
#   scripts/verifyd_profile.sh --out DIR [--seconds S] [--seed K]
#   make verifyd-profile SECONDS=15 SEED=23 OUT=/tmp/verifyd-profile
#
# Defaults: 15 s at seed 1. On exit, normal or not, the run is stopped and
# the build directory is removed; nothing is left running.
set -euo pipefail

seconds=15 seed=1 out=
while [ $# -gt 0 ]; do
	case $1 in
	--seconds) seconds=$2 ;;
	--seed) seed=$2 ;;
	--out) out=$2 ;;
	*)
		echo "verifyd_profile.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift 2
done
case $seconds in '' | *[!0-9]* | 0)
	echo "verifyd_profile.sh: --seconds needs a positive count" >&2
	exit 2
	;;
esac
if [ -z "$out" ]; then
	echo "verifyd_profile.sh: --out DIR is required" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
# The number of set-ups, each with its own server, before the window's.
setups=$(sed -n 's/^const setupRepeats = \([0-9][0-9]*\)$/\1/p' perfbench/*.go)
if [ -z "$setups" ]; then
	echo "verifyd_profile.sh: setupRepeats not found under perfbench/" >&2
	exit 1
fi
mkdir -p "$out"
out=$(cd "$out" && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/verifyd-profile.XXXXXX")
running=

cleanup() {
	if [ -n "$running" ]; then
		kill -TERM -- "-$running" 2>/dev/null || true
		wait "$running" 2>/dev/null || true
	fi
	chmod -R u+w "$tmp" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# The run gets its own process group (the subshell execs setsid, so the
# group's id is the subshell's pid): every verifyd it starts is in it, and
# an interrupt stops them all.
(CARGO_TARGET_DIR="$tmp/build" exec setsid bash perfbench/run.sh \
	--workload verifyd-wide --seed "$seed" --seconds $((seconds + 10)) --trace 0 \
	>"$tmp/run.out" 2>"$tmp/run.err") &
running=$!
echo "verifyd_profile: verifyd-wide at seed $seed, profiling ${seconds}s of the window" >&2

# Follow the servers in start order until the window's, the last set-up's.
seen=() server=
while [ -z "$server" ]; do
	if ! kill -0 "$running" 2>/dev/null; then
		echo "verifyd_profile: the run ended after ${#seen[@]} of $setups servers:" >&2
		cat "$tmp/run.err" >&2
		exit 1
	fi
	for pid in $(pgrep -g "$running" -x verifyd || true); do
		case " ${seen[*]} " in *" $pid "*) continue ;; esac
		seen+=("$pid")
		[ "${#seen[@]}" -eq "$setups" ] && server=$pid
	done
	sleep 0.02
done
# Its address, from its listening socket, once it listens.
addr=
while [ -z "$addr" ]; do
	kill -0 "$server" 2>/dev/null || {
		echo "verifyd_profile: the window's server exited before it listened" >&2
		exit 1
	}
	addr=$(ss -ltnpH | awk -v p="pid=$server," 'index($0, p) { print $4; exit }')
	sleep 0.02
done
# Its set-up (readiness, event stream, warm-up jobs) ends within about a
# second; the profile starts after it.
sleep 2
echo "verifyd_profile: server $server on $addr" >&2
curl -sSf -o "$out/cpu.pprof" "http://$addr/debug/pprof/profile?seconds=$seconds"
curl -sSf -o "$out/allocs.pprof" "http://$addr/debug/pprof/allocs"

if ! wait "$running"; then
	running=
	echo "verifyd_profile: the run failed:" >&2
	cat "$tmp/run.err" >&2
	exit 1
fi
running=
tail -n 1 "$tmp/run.out" >"$out/run.json"
go tool pprof -top -cum "$out/cpu.pprof" >"$out/cpu.top.txt" 2>/dev/null
go tool pprof -sample_index=alloc_space -top -cum "$out/allocs.pprof" >"$out/allocs.top.txt" 2>/dev/null
echo "verifyd_profile: wrote $out/{cpu,allocs}.pprof, their .top.txt summaries and run.json" >&2
