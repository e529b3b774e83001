#!/usr/bin/env bash
# End-to-end smoke test: train a tiny forest, compile it, serve it, and
# classify through the client — the full §4.5 pipeline as CI exercises
# it on every push. Exits non-zero if any stage fails or the round trip
# misbehaves.
set -euo pipefail

workdir=$(mktemp -d)
sock="$workdir/bolt.sock"
serve_pid=""
extra_pids=()
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    [ -n "$serve_pid" ] && wait "$serve_pid" 2>/dev/null || true
    for p in ${extra_pids[@]+"${extra_pids[@]}"}; do
        kill "$p" 2>/dev/null || true
        wait "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build =="
go build -o "$workdir" ./cmd/bolt-train ./cmd/bolt-compile ./cmd/bolt-serve ./cmd/bolt-client ./cmd/bolt-router

echo "== train =="
"$workdir/bolt-train" -dataset lstw -samples 600 -trees 5 -depth 4 \
    -out "$workdir/forest.bin"

echo "== compile =="
"$workdir/bolt-compile" -model "$workdir/forest.bin" -dataset lstw \
    -out "$workdir/forest.bfc"

echo "== serve =="
"$workdir/bolt-serve" -compiled "$workdir/forest.bfc" -socket "$sock" \
    -workers 4 &
serve_pid=$!

# Wait for the socket to appear (up to ~5 s).
for _ in $(seq 50); do
    [ -S "$sock" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "bolt-serve died" >&2; exit 1; }
    sleep 0.1
done
[ -S "$sock" ] || { echo "socket never appeared" >&2; exit 1; }

echo "== classify =="
out=$("$workdir/bolt-client" -socket "$sock" -dataset lstw -n 200 -timeout 10s)
echo "$out"
echo "$out" | grep -q "classified 200 samples" || {
    echo "client round trip failed" >&2
    exit 1
}

echo "== batch =="
"$workdir/bolt-client" -socket "$sock" -dataset lstw -n 200 -batch 50 -timeout 10s \
    | grep -q "classified 200 samples" || { echo "batch round trip failed" >&2; exit 1; }

echo "== stats =="
stats=$("$workdir/bolt-client" stats -socket "$sock" -timeout 10s)
echo "$stats"
echo "$stats" | grep -q "4 workers" || { echo "stats missing worker count" >&2; exit 1; }
echo "$stats" | grep -Eq "op C: +[1-9]" || { echo "stats missing classify counters" >&2; exit 1; }

# Tear down the compiled-artifact server before the reload scenario.
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
rm -f "$sock"

echo "== reload under load =="
# Serve from the raw model path so SIGHUP recompiles whatever is on
# disk; swap the model mid-traffic and require zero client errors.
"$workdir/bolt-serve" -model "$workdir/forest.bin" -socket "$sock" \
    -workers 4 -drain 5s > "$workdir/serve.log" &
serve_pid=$!
for _ in $(seq 50); do
    [ -S "$sock" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "bolt-serve died" >&2; exit 1; }
    sleep 0.1
done
[ -S "$sock" ] || { echo "socket never appeared" >&2; exit 1; }

"$workdir/bolt-client" health -socket "$sock" -timeout 10s \
    | grep -q "state ready" || { echo "health not ready" >&2; exit 1; }

# Background traffic: batches with retries armed, spanning the swap.
"$workdir/bolt-client" -socket "$sock" -dataset lstw -n 2000 -batch 20 \
    -retries 5 -backoff 5ms -timeout 10s > "$workdir/client.log" 2>&1 &
client_pid=$!

# Retrain into the same path with a different seed, then hot-reload.
sleep 0.2
"$workdir/bolt-train" -dataset lstw -samples 600 -trees 5 -depth 4 \
    -seed 4242 -out "$workdir/forest.bin" > /dev/null
kill -HUP "$serve_pid"

wait "$client_pid" || {
    echo "client failed during reload:" >&2
    cat "$workdir/client.log" >&2
    exit 1
}
grep -q "classified 2000 samples" "$workdir/client.log" || {
    echo "reload-under-load traffic incomplete" >&2
    cat "$workdir/client.log" >&2
    exit 1
}

health=$("$workdir/bolt-client" health -socket "$sock" -timeout 10s)
echo "$health"
echo "$health" | grep -Eq "[1-9][0-9]* reloads" || { echo "reload not recorded" >&2; exit 1; }

stats=$("$workdir/bolt-client" stats -socket "$sock" -timeout 10s)
echo "$stats"
echo "$stats" | grep -q " 0 errors" || { echo "server saw errors across reload" >&2; exit 1; }

# Graceful SIGTERM must print the final stats snapshot.
kill -TERM "$serve_pid"
wait "$serve_pid" || true
serve_pid=""
grep -q "served .* requests" "$workdir/serve.log" || {
    echo "final stats snapshot missing from serve log" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}

echo "== concurrent clients =="
# A serial baseline client records the row-path answers; 32 concurrent
# single-row clients then send the identical probe set, and every one
# must report the exact same accuracy line (bit-exact labels) with
# zero server errors.
rm -f "$sock"
"$workdir/bolt-serve" -compiled "$workdir/forest.bfc" -socket "$sock" \
    -workers 4 > "$workdir/ccserve.log" &
serve_pid=$!
for _ in $(seq 50); do
    [ -S "$sock" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "bolt-serve died" >&2; exit 1; }
    sleep 0.1
done
[ -S "$sock" ] || { echo "socket never appeared" >&2; exit 1; }

base=$("$workdir/bolt-client" -socket "$sock" -dataset lstw -n 120 -timeout 10s \
    | grep "classified 120 samples") || { echo "baseline classify failed" >&2; exit 1; }

ccpids=()
for i in $(seq 32); do
    "$workdir/bolt-client" -socket "$sock" -dataset lstw -n 120 -timeout 30s \
        > "$workdir/cc.$i.log" 2>&1 &
    ccpids+=($!)
done
for pid in "${ccpids[@]}"; do
    wait "$pid" || {
        echo "concurrent client failed:" >&2
        cat "$workdir"/cc.*.log >&2
        exit 1
    }
done
for i in $(seq 32); do
    grep -qF "$base" "$workdir/cc.$i.log" || {
        echo "concurrent replies diverged from the serial baseline (client $i):" >&2
        echo "baseline: $base" >&2
        cat "$workdir/cc.$i.log" >&2
        exit 1
    }
done
stats=$("$workdir/bolt-client" stats -socket "$sock" -timeout 10s)
echo "$stats"
echo "$stats" | grep -q " 0 errors" || { echo "server saw errors under concurrent load" >&2; exit 1; }

# Tear down this server before the tiered scenario.
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "== tiered early exit =="
# Exact-mode tiering over 4 of the model's 5 trees — a majority, so
# tier-0 leads can actually clear the remaining tree's weight. The
# tiered server's batch labels must be bit-exact with an untier'd
# baseline serving the same model (exact mode provably cannot flip an
# argmax), and the stats wire must show samples answered at tier 0.
rm -f "$sock"
"$workdir/bolt-serve" -model "$workdir/forest.bin" -socket "$sock" \
    -workers 2 > "$workdir/tbase.log" &
serve_pid=$!
for _ in $(seq 50); do
    [ -S "$sock" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "bolt-serve died" >&2; exit 1; }
    sleep 0.1
done
[ -S "$sock" ] || { echo "socket never appeared" >&2; exit 1; }
tbase=$("$workdir/bolt-client" -socket "$sock" -dataset lstw -n 240 -batch 60 -timeout 10s \
    | grep "classified 240 samples") || { echo "untier'd baseline classify failed" >&2; exit 1; }
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
rm -f "$sock"

"$workdir/bolt-serve" -model "$workdir/forest.bin" -socket "$sock" \
    -workers 2 -tier-trees 4 > "$workdir/tier.log" &
serve_pid=$!
for _ in $(seq 50); do
    [ -S "$sock" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "bolt-serve died" >&2; exit 1; }
    sleep 0.1
done
[ -S "$sock" ] || { echo "socket never appeared" >&2; exit 1; }
grep -q "tiered inference on" "$workdir/tier.log" || {
    echo "server did not announce tiered inference" >&2
    cat "$workdir/tier.log" >&2
    exit 1
}

tout=$("$workdir/bolt-client" -socket "$sock" -dataset lstw -n 240 -batch 60 -timeout 10s \
    | grep "classified 240 samples") || { echo "tiered classify failed" >&2; exit 1; }
[ "$tout" = "$tbase" ] || {
    echo "exact-mode tiered output diverged from the untier'd baseline:" >&2
    echo "baseline: $tbase" >&2
    echo "tiered:   $tout" >&2
    exit 1
}

stats=$("$workdir/bolt-client" stats -socket "$sock" -timeout 10s)
echo "$stats"
echo "$stats" | grep -Eq "tiered: [1-9][0-9]* answered at tier 0" || {
    echo "no samples answered at tier 0 in exact mode" >&2
    exit 1
}
echo "$stats" | grep -q " 0 errors" || { echo "server saw errors under tiered load" >&2; exit 1; }

# Tear down the tiered server before the replicated-tier scenario.
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "== replicated tier through bolt-router =="
# Three backends behind one router; SIGKILL a backend mid-wave and
# require zero client-visible errors, then prove the breaker tripped
# and re-admitted the restarted replica.
for i in 0 1 2; do
    "$workdir/bolt-serve" -compiled "$workdir/forest.bfc" -socket "$workdir/be$i.sock" \
        -workers 2 > "$workdir/be$i.log" &
    extra_pids+=($!)
done
for i in 0 1 2; do
    for _ in $(seq 50); do
        [ -S "$workdir/be$i.sock" ] && break
        sleep 0.1
    done
    [ -S "$workdir/be$i.sock" ] || { echo "backend $i socket never appeared" >&2; exit 1; }
done

rsock="$workdir/router.sock"
"$workdir/bolt-router" -listen "$rsock" \
    -backends "$workdir/be0.sock,$workdir/be1.sock,$workdir/be2.sock" \
    -probe-interval 25ms -probe-timeout 500ms -breaker-threshold 2 \
    -breaker-cooldown 100ms -retries 4 -queue-wait 2s -drain 5s \
    > "$workdir/router.log" &
router_pid=$!
extra_pids+=("$router_pid")
for _ in $(seq 50); do
    [ -S "$rsock" ] && break
    kill -0 "$router_pid" 2>/dev/null || { echo "bolt-router died" >&2; cat "$workdir/router.log" >&2; exit 1; }
    sleep 0.1
done
[ -S "$rsock" ] || { echo "router socket never appeared" >&2; exit 1; }

# A stock bolt-client works against the router unchanged.
"$workdir/bolt-client" health -socket "$rsock" -timeout 10s | grep -q "3 workers" || {
    echo "router health does not report 3 backends in rotation" >&2
    exit 1
}

# Client wave with retries armed, spanning the backend kill.
"$workdir/bolt-client" -socket "$rsock" -dataset lstw -n 4000 \
    -retries 8 -backoff 5ms -timeout 10s > "$workdir/rclient.log" 2>&1 &
rclient_pid=$!

sleep 0.2
# SIGKILL backend 1 mid-wave: no drain, connections die mid-whatever.
kill -9 "${extra_pids[1]}" 2>/dev/null || true
sleep 0.4   # probes (25ms apart, threshold 2) trip the breaker here
"$workdir/bolt-serve" -compiled "$workdir/forest.bfc" -socket "$workdir/be1.sock" \
    -workers 2 > "$workdir/be1-restarted.log" &
extra_pids[1]=$!
for _ in $(seq 50); do
    [ -S "$workdir/be1.sock" ] && break
    sleep 0.1
done

wait "$rclient_pid" || {
    echo "client saw errors while a backend was killed and restarted:" >&2
    cat "$workdir/rclient.log" >&2
    exit 1
}
grep -q "classified 4000 samples" "$workdir/rclient.log" || {
    echo "router wave traffic incomplete" >&2
    cat "$workdir/rclient.log" >&2
    exit 1
}

# Wait for the half-open probe to re-admit the restarted backend.
readmitted=""
for _ in $(seq 100); do
    if "$workdir/bolt-client" health -socket "$rsock" -timeout 10s | grep -q "3 workers"; then
        readmitted=yes
        break
    fi
    sleep 0.1
done
[ -n "$readmitted" ] || { echo "restarted backend never re-admitted" >&2; exit 1; }

stats=$("$workdir/bolt-client" stats -socket "$rsock" -timeout 10s)
echo "$stats"
echo "$stats" | grep -q "router:" || { echo "stats missing router section" >&2; exit 1; }
echo "$stats" | grep -Eq "trips=[1-9]" || { echo "breaker never tripped" >&2; exit 1; }
echo "$stats" | grep -Eq "readmits=[1-9]" || { echo "breaker never re-closed" >&2; exit 1; }

# Graceful SIGTERM must print the final routing snapshot.
kill -TERM "$router_pid"
wait "$router_pid" 2>/dev/null || true
grep -q "routed .* requests" "$workdir/router.log" || {
    echo "final routing snapshot missing from router log" >&2
    cat "$workdir/router.log" >&2
    exit 1
}
grep -Eq "trips=[1-9]" "$workdir/router.log" || {
    echo "final snapshot missing breaker trip" >&2
    cat "$workdir/router.log" >&2
    exit 1
}

echo "smoke OK"
