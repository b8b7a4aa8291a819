#!/bin/sh
# Boots amjsd on an ephemeral port and runs amjs-load against it in
# batched mode — the end-to-end smoke of the sharded ingest path over a
# real TCP loopback (the Go tests cover the same path in-process). The
# run fails unless the achieved submission rate clears MIN_RATE, a
# deliberately conservative floor so the gate holds on small shared CI
# hosts; the daemon-ingest benchmark workload is the measured run.
#
# Usage: scripts/load_smoke.sh
#   MIN_RATE  throughput floor in jobs/s   (default 20000)
#   JOBS      jobs to submit               (default 100000)
#   BATCH     jobs per POST                (default 256)
set -eu

cd "$(dirname "$0")/.."

MIN_RATE=${MIN_RATE:-20000}
JOBS=${JOBS:-100000}
BATCH=${BATCH:-256}

. scripts/daemon_lib.sh
boot_daemon easy
go build -o "$bin/amjs-load" ./cmd/amjs-load

echo "load_smoke: daemon at $addr, submitting $JOBS jobs in batches of $BATCH (floor $MIN_RATE/s)" >&2
"$bin/amjs-load" -addr "http://$addr" -trace "gen:$JOBS" -batch "$BATCH" \
    -workers 4 -min-rate "$MIN_RATE"
echo "load_smoke: ok" >&2
