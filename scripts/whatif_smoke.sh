#!/bin/sh
# Boots amjsd with the simulation-in-the-loop tuner on an ephemeral
# port, batch-submits a contended synthetic trace over real TCP
# loopback, drains at speedup=inf, and asserts through /v1/tuner that
# the what-if planner actually ran and committed at least one (BF, W)
# retune — the end-to-end smoke of policy parsing, the lookahead
# planner, the tuner's joint-commit path, and the status surface, all
# through the public HTTP API.
#
# Usage: scripts/whatif_smoke.sh
#   JOBS      jobs to submit            (default 200)
#   POLICY    what-if policy spec       (default whatif:avg-wait:1)
set -eu

cd "$(dirname "$0")/.."

JOBS=${JOBS:-200}
POLICY=${POLICY:-whatif:avg-wait:1}

command -v curl >/dev/null || { echo "whatif_smoke: curl not found" >&2; exit 1; }

. scripts/daemon_lib.sh
boot_daemon "$POLICY"

# A contended trace: job sizes cycle up to the full machine, arrivals
# every 5 virtual minutes, runtimes long enough that the queue deepens
# and the planner's rollouts diverge across the (BF, W) grid.
awk -v n="$JOBS" 'BEGIN {
    printf "["
    for (i = 0; i < n; i++) {
        split("32 64 64 128 128 256 512", sizes, " ")
        nodes = sizes[i % 7 + 1]
        runtime = 600 + (i % 17) * 300
        walltime = runtime + 900 + (i % 5) * 1800
        printf "%s{\"user\":\"u%d\",\"nodes\":%d,\"walltime_sec\":%d,\"runtime_sec\":%d,\"submit_sec\":%d}", \
            (i ? "," : ""), i % 11, nodes, walltime, runtime, i * 300
    }
    printf "]"
}' >"$bin/jobs.json"

echo "whatif_smoke: daemon at $addr (policy $POLICY), submitting $JOBS jobs" >&2
code=$(curl -s -o "$bin/submit.json" -w '%{http_code}' \
    -H 'Content-Type: application/json' --data-binary @"$bin/jobs.json" \
    "http://$addr/v1/jobs")
[ "$code" = 200 ] || [ "$code" = 201 ] || {
    echo "whatif_smoke: batch submit returned HTTP $code" >&2
    cat "$bin/submit.json" >&2
    exit 1
}

curl -s -X POST "http://$addr/v1/drain" >/dev/null

curl -s "http://$addr/v1/tuner" >"$bin/tuner.json"

# Assert: what-if policy live, planner ticked, and >= 1 committed
# decision. grep -o keeps this dependency-free (no jq on CI hosts).
grep -q '"policy": *"adaptive(whatif)"' "$bin/tuner.json" || {
    echo "whatif_smoke: /v1/tuner policy is not adaptive(whatif):" >&2
    cat "$bin/tuner.json" >&2
    exit 1
}
ticks=$(grep -o '"ticks": *[0-9]*' "$bin/tuner.json" | head -1 | tr -dc 0-9)
commits=$(grep -o '"commits": *[0-9]*' "$bin/tuner.json" | head -1 | tr -dc 0-9)
[ -n "$ticks" ] && [ "$ticks" -gt 0 ] || {
    echo "whatif_smoke: planner never ticked (ticks=$ticks):" >&2
    cat "$bin/tuner.json" >&2
    exit 1
}
[ -n "$commits" ] && [ "$commits" -ge 1 ] || {
    echo "whatif_smoke: no committed decisions (commits=$commits):" >&2
    cat "$bin/tuner.json" >&2
    exit 1
}
echo "whatif_smoke: ok (ticks=$ticks commits=$commits)" >&2
