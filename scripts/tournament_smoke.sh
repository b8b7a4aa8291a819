#!/bin/sh
# End-to-end smoke of the cross-trace policy tournament: generates a
# mini SWF trace with amjs-gen, plays a >= 6-policy league over the
# synthetic mini workload plus that trace, and asserts
#   1. artifact schema: league text/CSV/JSON carry the headline columns
#      (rank, policy, avg BSLD, wait, util, fairness) and the standings;
#   2. rank sanity: every trace ranks each policy exactly once, 1..P,
#      and the standings cover every policy;
#   3. determinism: -workers 1 and -workers 8 produce byte-identical
#      text, CSV, and JSON artifacts.
#
# Usage: scripts/tournament_smoke.sh
#   JOBS      jobs per trace     (default 60)
#   POLICIES  policy list        (default: 9-policy zoo slice, the §V scorer form included)
set -eu

cd "$(dirname "$0")/.."

JOBS=${JOBS:-60}
POLICIES=${POLICIES:-fcfs,sjf,easy,conservative,wfp,unicef,smallest,metric:0.5:4,metric:wait=0.5+large=0.25+short=0.25:4}

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT

go build -o "$bin/amjs-tournament" ./cmd/amjs-tournament
go build -o "$bin/amjs-gen" ./cmd/amjs-gen

"$bin/amjs-gen" -workload mini -seed 7 -jobs "$JOBS" -o "$bin/mini.swf"

npolicies=$(echo "$POLICIES" | tr ',' '\n' | wc -l | tr -d ' ')
[ "$npolicies" -ge 6 ] || { echo "tournament_smoke: need >= 6 policies, got $npolicies" >&2; exit 1; }

for workers in 1 8; do
    "$bin/amjs-tournament" \
        -machines partition:8x64 \
        -workloads "mini,swf:$bin/mini.swf" \
        -policies "$POLICIES" -jobs "$JOBS" -fairness -workers "$workers" \
        -txt "$bin/league$workers.txt" -csv "$bin/league$workers.csv" \
        -json "$bin/league$workers.json" >"$bin/stdout$workers" 2>"$bin/stderr$workers" || {
        echo "tournament_smoke: run failed (workers=$workers):" >&2
        cat "$bin/stderr$workers" >&2
        exit 1
    }
done

# 1. Schema: text artifact carries the standings and headline columns.
for want in "League standings" "avg BSLD" "util (%)" "unfair" "mean rank" "wins"; do
    grep -qF "$want" "$bin/league1.txt" || {
        echo "tournament_smoke: text artifact missing \"$want\"" >&2
        exit 1
    }
done
head -1 "$bin/league1.csv" | grep -q "trace,rank,policy,name,adaptive,avg_bsld" || {
    echo "tournament_smoke: unexpected CSV header: $(head -1 "$bin/league1.csv")" >&2
    exit 1
}
grep -q '"standings"' "$bin/league1.json" || {
    echo "tournament_smoke: JSON artifact has no standings" >&2
    exit 1
}

# 2. Rank sanity over the CSV: per trace, ranks must be a permutation
# of 1..npolicies (each exactly once), across exactly 2 traces.
awk -F, -v P="$npolicies" '
NR > 1 {
    if (seen[$1, $2]++) { print "duplicate rank " $2 " in trace " $1; bad = 1 }
    if ($2 < 1 || $2 > P) { print "rank " $2 " out of range in trace " $1; bad = 1 }
    count[$1]++
}
END {
    traces = 0
    for (tr in count) {
        traces++
        if (count[tr] != P) { print "trace " tr " has " count[tr] " cells, want " P; bad = 1 }
    }
    if (traces != 2) { print "expected 2 traces, found " traces; bad = 1 }
    exit bad
}' "$bin/league1.csv" || { echo "tournament_smoke: rank sanity failed" >&2; exit 1; }

# 3. Byte-identity across worker counts, for every artifact.
for ext in txt csv json; do
    cmp -s "$bin/league1.$ext" "$bin/league8.$ext" || {
        echo "tournament_smoke: league.$ext differs between workers=1 and workers=8" >&2
        exit 1
    }
done
cmp -s "$bin/stdout1" "$bin/stdout8" || {
    echo "tournament_smoke: stdout differs between workers=1 and workers=8" >&2
    exit 1
}

echo "tournament_smoke: ok ($npolicies policies x 2 traces, deterministic)" >&2
