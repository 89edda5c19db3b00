#!/bin/sh
# verifyd service smoke: the end-to-end CI lane for the verification job
# server and its persistent warm-start memo store.
#
# The script boots cmd/verifyd under the race detector, submits a
# 32-instance manifest job over HTTP, polls it to completion, and fetches
# the verdict document. It then checks the shard protocol (the merged
# verdicts of shard 0/2 and 1/2 reproduce the full job's byte for byte),
# kills the server with SIGTERM (the graceful-drain path), restarts it
# against the same store directory, resubmits the identical job, and
# asserts the warm start: strictly more memo hits than the first run,
# nonzero store hits, and a byte-identical verdict document (which now
# embeds the deterministic cost figures, so the restart identity also
# covers the cost ledger). A third boot with a one-slot queue drives the
# admission controller: with the runner occupied and the queue full, a
# further submission must shed with 503 + Retry-After, and intake must
# recover to 202 once the queue drains. Finally the server journals and
# every per-job spool journal must pass journalstat -validate, and the
# /metrics plane
# must expose the muml_store_* and muml_verifyd_* families.
#
# Everything lands in VERIFYD_SMOKE_DIR so CI can upload the artifacts
# when the smoke fails. Usage: scripts/verifyd_smoke.sh (from the repo
# root; VERIFYD_SMOKE_DIR, VERIFYD_ADDR, and GO override the defaults).
set -eu

DIR="${VERIFYD_SMOKE_DIR:-/tmp/verifyd-smoke}"
ADDR="${VERIFYD_ADDR:-127.0.0.1:8491}"
GO="${GO:-go}"

rm -rf "$DIR"
mkdir -p "$DIR"

echo "verifyd-smoke: building verifyd (-race) and journalstat"
$GO build -race -o "$DIR/verifyd" ./cmd/verifyd
$GO build -o "$DIR/journalstat" ./cmd/journalstat

# 32 seeded wide-config instances: the wide alphabet makes each seed
# contribute distinct closure records, so the store has real
# content to warm-start from.
: > "$DIR/manifest.jsonl"
i=0
while [ "$i" -lt 32 ]; do
    echo "{\"seed\": $((1000 + i)), \"config\": \"wide\"}" >> "$DIR/manifest.jsonl"
    i=$((i + 1))
done

VERIFYD_PID=

start_verifyd() { # $1: run label; remaining args: extra verifyd flags
    label="$1"
    shift
    "$DIR/verifyd" -addr "$ADDR" -store "$DIR/store" -spool "$DIR/spool" \
        -journal "$DIR/server-$label.jsonl" "$@" \
        > "$DIR/verifyd-$label.out" 2> "$DIR/verifyd-$label.err" &
    VERIFYD_PID=$!
    # Poll readiness, not liveness: /readyz answers 200 only once the
    # server accepts jobs, which is the state the smoke actually needs.
    i=0
    while [ "$i" -lt 100 ]; do
        if curl -fsS "http://$ADDR/readyz" > /dev/null 2>&1; then return 0; fi
        if ! kill -0 "$VERIFYD_PID" 2> /dev/null; then
            echo "verifyd-smoke: verifyd ($label) exited during startup:" >&2
            cat "$DIR/verifyd-$label.err" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    echo "verifyd-smoke: verifyd ($label) never became ready" >&2
    exit 1
}

stop_verifyd() {
    kill -TERM "$VERIFYD_PID"
    if ! wait "$VERIFYD_PID"; then
        echo "verifyd-smoke: verifyd exited non-zero on SIGTERM" >&2
        exit 1
    fi
}

submit() { # $1: query string ("" or "?shard_count=2&shard_index=0"); prints job id
    curl -fsS -X POST --data-binary @"$DIR/manifest.jsonl" "http://$ADDR/jobs$1" \
        | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4
}

wait_done() { # $1: job id; prints the final status document
    i=0
    while [ "$i" -lt 300 ]; do
        status="$(curl -fsS "http://$ADDR/jobs/$1")"
        state="$(printf '%s' "$status" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)"
        case "$state" in
        done)
            printf '%s' "$status"
            return 0
            ;;
        failed | canceled)
            echo "verifyd-smoke: job $1 ended as $state: $status" >&2
            exit 1
            ;;
        esac
        sleep 0.2
        i=$((i + 1))
    done
    echo "verifyd-smoke: job $1 did not finish in time" >&2
    exit 1
}

field() { # $1: integer field name, $2: JSON document; prints the value
    printf '%s' "$2" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}

# ---- run 1: cold store -----------------------------------------------------
start_verifyd run1

echo "verifyd-smoke: run 1: submitting the 32-instance manifest job"
job_full="$(submit "")"
status_full="$(wait_done "$job_full")"
hits1="$(field memo_hits "$status_full")"
misses1="$(field memo_misses "$status_full")"
curl -fsS "http://$ADDR/jobs/$job_full/verdicts" > "$DIR/verdicts-run1.ndjson"
[ -s "$DIR/verdicts-run1.ndjson" ] || { echo "verifyd-smoke: empty verdicts" >&2; exit 1; }
echo "verifyd-smoke: run 1: job $job_full done (memo $hits1 hits / $misses1 misses)"

# Cost attribution: the job status carries the aggregated ledger and the
# verdict lines carry the deterministic per-instance figures.
printf '%s' "$status_full" | grep -q '"cost":{' \
    || { echo "verifyd-smoke: job status without a cost block" >&2; exit 1; }
cpu_ns="$(field cpu_ns "$status_full")"
if [ -z "$cpu_ns" ] || [ "$cpu_ns" -eq 0 ]; then
    echo "verifyd-smoke: job cost ledger has no CPU time: $status_full" >&2
    exit 1
fi
grep -q '"cost":{"peak_states":' "$DIR/verdicts-run1.ndjson" \
    || { echo "verifyd-smoke: verdict lines lack cost figures" >&2; exit 1; }
if [ "$misses1" -eq 0 ]; then
    echo "verifyd-smoke: run 1 had no memo misses; the warm-start assertion would be vacuous" >&2
    exit 1
fi

echo "verifyd-smoke: run 1: shard 0/2 + 1/2 must merge to the full verdicts"
job_s0="$(submit "?shard_count=2&shard_index=0")"
job_s1="$(submit "?shard_count=2&shard_index=1")"
wait_done "$job_s0" > /dev/null
wait_done "$job_s1" > /dev/null
curl -fsS "http://$ADDR/jobs/$job_s0/verdicts" > "$DIR/verdicts-shard0.ndjson"
curl -fsS "http://$ADDR/jobs/$job_s1/verdicts" > "$DIR/verdicts-shard1.ndjson"
cat "$DIR/verdicts-shard0.ndjson" "$DIR/verdicts-shard1.ndjson" | LC_ALL=C sort > "$DIR/verdicts-merged.ndjson"
LC_ALL=C sort "$DIR/verdicts-run1.ndjson" > "$DIR/verdicts-run1-sorted.ndjson"
if ! cmp -s "$DIR/verdicts-merged.ndjson" "$DIR/verdicts-run1-sorted.ndjson"; then
    echo "verifyd-smoke: merged shard verdicts differ from the full job" >&2
    diff "$DIR/verdicts-run1-sorted.ndjson" "$DIR/verdicts-merged.ndjson" >&2 || true
    exit 1
fi

stop_verifyd

# ---- run 2: restarted process, warm store ----------------------------------
start_verifyd run2

echo "verifyd-smoke: run 2: resubmitting the identical job against the same store"
job2="$(submit "")"
status2="$(wait_done "$job2")"
hits2="$(field memo_hits "$status2")"
store_hits2="$(field store_hits "$status2")"
echo "verifyd-smoke: run 2: job $job2 done (memo $hits2 hits, store $store_hits2 hits)"

if [ "$hits2" -le "$hits1" ]; then
    echo "verifyd-smoke: warm start failed: run 2 memo hits $hits2 <= run 1 hits $hits1" >&2
    exit 1
fi
if [ "$store_hits2" -eq 0 ]; then
    echo "verifyd-smoke: restarted run never hit the on-disk store" >&2
    exit 1
fi

curl -fsS "http://$ADDR/jobs/$job2/verdicts" > "$DIR/verdicts-run2.ndjson"
if ! cmp -s "$DIR/verdicts-run1.ndjson" "$DIR/verdicts-run2.ndjson"; then
    echo "verifyd-smoke: verdicts changed across the restart" >&2
    diff "$DIR/verdicts-run1.ndjson" "$DIR/verdicts-run2.ndjson" >&2 || true
    exit 1
fi

curl -fsS "http://$ADDR/metrics" > "$DIR/metrics-run2.prom"
grep -Eq '^muml_store_hits_total [1-9]' "$DIR/metrics-run2.prom"
grep -q '^muml_store_misses_total' "$DIR/metrics-run2.prom"
grep -q '^muml_store_bytes_max' "$DIR/metrics-run2.prom"
grep -Eq '^muml_verifyd_jobs_done_total [1-9]' "$DIR/metrics-run2.prom"

stop_verifyd

# ---- run 3: admission control at the queue bound ---------------------------
start_verifyd run3 -queue 1

json_submit() { # $1: JSON body; prints job id
    curl -fsS -H 'Content-Type: application/json' -d "$1" "http://$ADDR/jobs" \
        | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4
}

echo "verifyd-smoke: run 3: occupying the runner and filling the one-slot queue"
slow_job="$(json_submit '{"gen":{"seed":100,"n":16,"config":"wide"},"workers":1}')"
i=0
state=""
while [ "$i" -lt 100 ]; do
    state="$(curl -fsS "http://$ADDR/jobs/$slow_job" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)"
    [ "$state" = running ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ "$state" != running ]; then
    echo "verifyd-smoke: run 3: slow job never started running (state: $state)" >&2
    exit 1
fi
queued_job="$(json_submit '{"scenarios":true}')"

echo "verifyd-smoke: run 3: overflow submission must shed with 503 + Retry-After"
overflow_code="$(curl -sS -o "$DIR/overflow-body.txt" -D "$DIR/overflow-headers.txt" \
    -w '%{http_code}' -H 'Content-Type: application/json' -d '{"scenarios":true}' \
    "http://$ADDR/jobs")"
if [ "$overflow_code" != 503 ]; then
    echo "verifyd-smoke: overflow submission got $overflow_code, want 503" >&2
    exit 1
fi
if ! grep -qi '^Retry-After:' "$DIR/overflow-headers.txt"; then
    echo "verifyd-smoke: overflow 503 carried no Retry-After header:" >&2
    cat "$DIR/overflow-headers.txt" >&2
    exit 1
fi

echo "verifyd-smoke: run 3: intake must recover to 202 once the queue drains"
wait_done "$slow_job" > /dev/null
wait_done "$queued_job" > /dev/null
recover_code="$(curl -sS -o /dev/null -w '%{http_code}' -H 'Content-Type: application/json' \
    -d '{"scenarios":true}' "http://$ADDR/jobs")"
if [ "$recover_code" != 202 ]; then
    echo "verifyd-smoke: post-drain submission got $recover_code, want 202" >&2
    exit 1
fi

stop_verifyd

echo "verifyd-smoke: validating server and per-job journals"
"$DIR/journalstat" -validate "$DIR"/server-*.jsonl "$DIR"/spool/*.jsonl > /dev/null

echo "verifyd-smoke: service, store warm start, shard merge, admission control, and journals ok"
