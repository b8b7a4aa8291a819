# Sourced by load_smoke.sh and whatif_smoke.sh: makes $bin (temp dir,
# removed on exit) and reaps the daemon however the script ends. dash
# skips the EXIT trap when a signal kills the shell, so HUP/INT/TERM
# are turned into exits (run once the foreground command returns).
bin=$(mktemp -d)
daemon_pid=
cleanup() {
    [ -z "$daemon_pid" ] || { kill "$daemon_pid"; wait "$daemon_pid"; } 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT
trap 'exit 129' HUP
trap 'exit 130' INT
trap 'exit 143' TERM

# boot_daemon POLICY builds and starts amjsd (flat:512, speedup=inf) on
# port 0 and sets $addr from its "amjsd listening on HOST:PORT" line.
boot_daemon() {
    go build -o "$bin/amjsd" ./cmd/amjsd
    "$bin/amjsd" -addr 127.0.0.1:0 -machine flat:512 -policy "$1" \
        -speedup inf -log-requests=false >"$bin/announce" 2>"$bin/amjsd.log" &
    daemon_pid=$!
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/^amjsd listening on \(.*\)$/\1/p' "$bin/announce")
        [ -z "$addr" ] || return 0
        kill -0 "$daemon_pid" 2>/dev/null || break
        sleep 0.1
    done
    echo "$(basename "$0"): daemon died or never announced its address:" >&2
    cat "$bin/amjsd.log" >&2
    exit 1
}
