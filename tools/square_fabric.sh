#!/usr/bin/env bash
# square_fabric: launch a shard fabric — N square_served shard daemons
# plus one square_router front — with port-file handshakes, and keep it
# up until the router exits (or this script is signalled), tearing the
# whole tree down cleanly either way.
#
#   square_fabric --shards=3 --port=7801 &
#   square_client --port=7801 < requests.ndjson
#
# Every daemon binds an ephemeral port and announces it through a
# --port-file in the state directory; the script waits for each file
# before wiring the next tier, so there are no races and no fixed-port
# collisions between concurrent fabrics (CI runs several).
#
# Flags:
#   --shards=N        shard daemon count (default 3)
#   --port=N          router listen port (default 0 = ephemeral)
#   --dir=PATH        state directory for port/pid files (default: a
#                     fresh mktemp -d under TMPDIR)
#   --workers=N       compile-pool workers per shard daemon (default 1)
#   --cache-entries=N per-shard-daemon LRU bound (default unbounded)
#   --no-store        do NOT give each shard a persistent artifact
#                     store (default: shard i appends to
#                     $STATE_DIR/shard<i>.store and warm-restarts from
#                     it — reusing --dir across runs restarts warm)
#   --prewarm=LOG     pass --prewarm=LOG to every shard daemon: a
#                     freshly added shard bulk-loads a donor shard's
#                     log; keys outside its ring slice are simply
#                     never looked up (content addressing makes
#                     over-replay harmless)
#   --router-flags=S  extra flags passed verbatim to square_router
#   --served-flags=S  extra flags passed verbatim to each square_served
#   --quiet           pass --quiet to every daemon
#
# State directory layout (the CI smoke kills shards through it):
#   router.port  router.pid  router.postmortem
#   shard<i>.port  shard<i>.pid  shard<i>.postmortem  shard<i>.store
#   for i in 1..N
#
# Every daemon gets a per-daemon --postmortem file in the state
# directory, so a crashed or stalled daemon leaves a flight-recorder
# dump behind for square_blackbox (the files are only written when a
# dump actually happens).
#
# The router is started with --cascade-shutdown, so a protocol
# {"cmd": "shutdown"} to the router brings down the whole fabric.

set -euo pipefail

SHARDS=3
PORT=0
STATE_DIR=""
WORKERS=1
CACHE_ENTRIES=""
STORE=1
PREWARM=""
ROUTER_FLAGS=""
SERVED_FLAGS=""
QUIET=""

for arg in "$@"; do
    case "$arg" in
        --shards=*) SHARDS="${arg#*=}" ;;
        --port=*) PORT="${arg#*=}" ;;
        --dir=*) STATE_DIR="${arg#*=}" ;;
        --workers=*) WORKERS="${arg#*=}" ;;
        --cache-entries=*) CACHE_ENTRIES="${arg#*=}" ;;
        --no-store) STORE=0 ;;
        --prewarm=*) PREWARM="${arg#*=}" ;;
        --router-flags=*) ROUTER_FLAGS="${arg#*=}" ;;
        --served-flags=*) SERVED_FLAGS="${arg#*=}" ;;
        --quiet) QUIET="--quiet" ;;
        *)
            echo "square_fabric: unknown flag '$arg'" >&2
            echo "usage: square_fabric [--shards=N] [--port=N]" \
                 "[--dir=PATH] [--workers=N] [--cache-entries=N]" \
                 "[--no-store] [--prewarm=LOG]" \
                 "[--router-flags=S] [--served-flags=S] [--quiet]" >&2
            exit 1
            ;;
    esac
done

case "$SHARDS" in
    ''|*[!0-9]*) echo "square_fabric: bad --shards" >&2; exit 1 ;;
esac
if [ "$SHARDS" -lt 1 ]; then
    echo "square_fabric: --shards must be >= 1" >&2
    exit 1
fi

BIN_DIR="$(cd "$(dirname "$0")" && pwd)"
SERVED="$BIN_DIR/square_served"
ROUTER="$BIN_DIR/square_router"
for bin in "$SERVED" "$ROUTER"; do
    if [ ! -x "$bin" ]; then
        echo "square_fabric: missing binary $bin (build first)" >&2
        exit 1
    fi
done

if [ -z "$STATE_DIR" ]; then
    STATE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/square_fabric.XXXXXX")"
else
    mkdir -p "$STATE_DIR"
fi

PIDS=()
cleanup() {
    # Kill the whole tree; daemons drain on SIGTERM.
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in "${PIDS[@]:-}"; do
        wait "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT INT TERM

wait_port_file() {
    # Port files are written atomically enough for this handshake (a
    # single short fprintf), but guard against the empty-file window.
    local file="$1" tries=0
    while [ ! -s "$file" ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 200 ]; then
            echo "square_fabric: timed out waiting for $file" >&2
            exit 1
        fi
        sleep 0.05
    done
}

SERVED_ARGS=("--workers=$WORKERS")
if [ -n "$CACHE_ENTRIES" ]; then
    SERVED_ARGS+=("--cache-entries=$CACHE_ENTRIES")
fi
if [ -n "$QUIET" ]; then
    SERVED_ARGS+=("$QUIET")
fi

SHARD_ADDRS=()
for i in $(seq 1 "$SHARDS"); do
    # Per-shard persistence: each daemon owns its own append-only log
    # (two writers on one log would interleave frames), so reusing the
    # state directory across fabric runs restarts every shard warm.
    PERSIST_ARGS=()
    if [ "$STORE" -eq 1 ]; then
        PERSIST_ARGS+=("--store=$STATE_DIR/shard$i.store")
    fi
    if [ -n "$PREWARM" ]; then
        PERSIST_ARGS+=("--prewarm=$PREWARM")
    fi
    # shellcheck disable=SC2086  # SERVED_FLAGS is intentionally split
    "$SERVED" --port=0 --port-file="$STATE_DIR/shard$i.port" \
        --postmortem="$STATE_DIR/shard$i.postmortem" \
        "${PERSIST_ARGS[@]}" \
        "${SERVED_ARGS[@]}" $SERVED_FLAGS &
    pid=$!
    PIDS+=("$pid")
    echo "$pid" > "$STATE_DIR/shard$i.pid"
done
for i in $(seq 1 "$SHARDS"); do
    wait_port_file "$STATE_DIR/shard$i.port"
    SHARD_ADDRS+=("--shard=127.0.0.1:$(cat "$STATE_DIR/shard$i.port")")
done

# shellcheck disable=SC2086  # ROUTER_FLAGS is intentionally split
"$ROUTER" --port="$PORT" --port-file="$STATE_DIR/router.port" \
    --postmortem="$STATE_DIR/router.postmortem" \
    --cascade-shutdown "${SHARD_ADDRS[@]}" $QUIET $ROUTER_FLAGS &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
echo "$ROUTER_PID" > "$STATE_DIR/router.pid"
wait_port_file "$STATE_DIR/router.port"

echo "square_fabric: router on port $(cat "$STATE_DIR/router.port")," \
     "$SHARDS shard(s), state in $STATE_DIR" >&2

# Keep the fabric up until the router exits (protocol shutdown or a
# signal to this script); the EXIT trap then reaps the shards.
wait "$ROUTER_PID"
