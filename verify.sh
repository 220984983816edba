#!/bin/sh
# Extended tier-1 gate: build everything, vet, check formatting, run the
# full test suite at one and at four cores and under the race detector,
# and smoke-test the dcserve demo path.
set -eu

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l (every Go file gofmt-clean)"
UNFMT=$(gofmt -l .)
[ -z "$UNFMT" ] || { echo "files not gofmt-clean:"; echo "$UNFMT"; exit 1; }

# A worker-pool bug can hide at one core count (GOMAXPROCS=1 runs every
# pool call inline), so the suite runs at both ends.
for procs in 1 4; do
    echo "== GOMAXPROCS=$procs go test -count=1 ./..."
    GOMAXPROCS=$procs go test -count=1 ./...
done

echo "== go test -race ./..."
go test -race ./...

echo "== evaluation-kernel determinism suite under -race (serial vs workers=N, incl. bit-parallel BFS and Algorithm 1's census/detour differential)"
go test -race -count=1 \
    -run 'Determinis|AcrossWorker|IdenticalAcross|SamplePairs|Parallel|BitBFS|MultiSource|WithinThreeHops' \
    ./internal/graph/ ./internal/rng/ ./internal/spanner/ \
    ./internal/routing/ ./internal/experiments/ ./internal/bench/ ./internal/check/

echo "== server fault-injection suite under -race (oversized lines, slow loris, disconnects, shutdown drain)"
go test -race -count=1 ./internal/server/

echo "== dccheck differential sweep (optimized == naive references, all gen families)"
go run ./cmd/dccheck -quick

echo "== dccheck per-backend sweep (each oracle backend forced, stretch bounds enforced)"
for be in landmark-bibfs exact-cached sparse-hub; do
    go run ./cmd/dccheck -quick -backend "$be" \
        || { echo "dccheck failed with backend $be forced"; exit 1; }
done

echo "== oracle godoc lint (every exported symbol in internal/oracle documented)"
UNDOC=$(awk '
    prev !~ /^\/\// && (/^(func|type|const|var) [A-Z]/ || /^func \([^)]*\) [A-Z]/) {
        print FILENAME ":" FNR ": " $0; bad = 1
    }
    { prev = $0 }
    END { exit bad }' $(ls internal/oracle/*.go | grep -v _test)) \
    || { echo "undocumented exported oracle symbols:"; echo "$UNDOC"; exit 1; }

echo "== wire handshake, trace context and update frames (version interval, trace echo, update/snapshot)"
go test -race -count=1 -run 'VersionRejected|FrameV3|TraceContext|OversizeRequest|BinaryTrace|UpdateSnap|BinaryUpdate|BinaryStatic|BinaryConcurrent' \
    ./internal/wire/ ./internal/server/

echo "== fuzz smoke (line protocol + wire frames + graphio reader, 5s each)"
go test -run '^$' -fuzz '^FuzzServerProtocol$' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz '^FuzzWireFrame$' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz '^FuzzGraphioRead$' -fuzztime 5s ./internal/check/

echo "== dcserve demo (512-node expander, 10k mixed queries)"
go run ./cmd/dcserve -demo -queries 10000

echo "== dcserve debug endpoint (/healthz, /metrics scrape)"
go build -o /tmp/dcserve.verify ./cmd/dcserve
rm -f /tmp/dcserve.verify.log
# The landmark backend is forced so the cache/path metric families the
# scrape below asserts on are the ones registered (auto would pick the
# exact table on a 512-node graph, which has no cache).
/tmp/dcserve.verify -listen 127.0.0.1:0 -debug-addr 127.0.0.1:0 \
    -oracle-backend landmark-bibfs \
    >/tmp/dcserve.verify.log 2>&1 &
SRV_PID=$!
trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT
DEBUG_ADDR=""
for _ in $(seq 1 100); do
    DEBUG_ADDR=$(sed -n 's/^debug listening on //p' /tmp/dcserve.verify.log)
    [ -n "$DEBUG_ADDR" ] && break
    sleep 0.1
done
[ -n "$DEBUG_ADDR" ] || { echo "dcserve never announced its debug address"; cat /tmp/dcserve.verify.log; exit 1; }
# The debug listener is up before the spanner+oracle build finishes, so
# wait for the serving banner — only then are the oracle and server
# metric families registered.
for _ in $(seq 1 200); do
    grep -q '^serving on ' /tmp/dcserve.verify.log && break
    sleep 0.1
done
grep -q '^serving on ' /tmp/dcserve.verify.log || { echo "dcserve never started serving"; cat /tmp/dcserve.verify.log; exit 1; }
curl -fsS "http://$DEBUG_ADDR/healthz" | grep -q ok || { echo "/healthz failed"; exit 1; }
curl -fsS "http://$DEBUG_ADDR/metrics" >/tmp/dcserve.verify.metrics
for fam in oracle_dist_queries_total oracle_cache_hits_total \
           oracle_backend_info oracle_backend_stretch_bound \
           oracle_dist_latency_seconds_bucket server_requests_total \
           server_active_conns go_goroutines; do
    grep -q "^$fam" /tmp/dcserve.verify.metrics || { echo "metric family $fam missing from /metrics"; exit 1; }
done
kill -INT "$SRV_PID"
wait "$SRV_PID" || { echo "dcserve did not drain cleanly"; exit 1; }
trap - EXIT
echo "scraped $(grep -c '^[a-z]' /tmp/dcserve.verify.metrics) samples from /metrics"

echo "== fleet e2e smoke (2-worker dcrouter + traced dcload over the binary protocol)"
go build -o /tmp/dcrouter.verify ./cmd/dcrouter
go build -o /tmp/dcload.verify ./cmd/dcload
rm -f /tmp/dcrouter.verify.log
# -d 64 keeps the 256-node graph inside the Theorem 2 expander regime
# (core.Build requires degree > n^{2/3}).
/tmp/dcrouter.verify -spawn 2 -n 256 -d 64 -listen 127.0.0.1:0 \
    -debug-addr 127.0.0.1:0 \
    >/tmp/dcrouter.verify.log 2>&1 &
RTR_PID=$!
trap 'kill "$RTR_PID" 2>/dev/null || true' EXIT
RTR_ADDR=""
for _ in $(seq 1 300); do
    RTR_ADDR=$(sed -n 's/^router serving on \([^ ]*\).*/\1/p' /tmp/dcrouter.verify.log)
    [ -n "$RTR_ADDR" ] && break
    sleep 0.1
done
[ -n "$RTR_ADDR" ] || { echo "dcrouter never announced its address"; cat /tmp/dcrouter.verify.log; exit 1; }
RTR_DEBUG=$(sed -n 's/^debug listening on //p' /tmp/dcrouter.verify.log)
[ -n "$RTR_DEBUG" ] || { echo "dcrouter never announced its debug address"; cat /tmp/dcrouter.verify.log; exit 1; }
# dcload exits 1 on zero answered requests or >1% errors, so its exit
# status is the assertion; -trace 8 sets the wire v3 sampling bit on
# every 8th request and verifies the target echoes it.
/tmp/dcload.verify -addr "$RTR_ADDR" -duration 2s -conns 4 -batch 1:3,16:1 -zipf 0.9 -trace 8 \
    >/tmp/dcload.verify.out 2>&1 \
    || { echo "dcload run against the router failed"; cat /tmp/dcload.verify.out /tmp/dcrouter.verify.log; exit 1; }
cat /tmp/dcload.verify.out
grep -q '^traced: [1-9][0-9]* requests confirmed sampled' /tmp/dcload.verify.out \
    || { echo "target never confirmed a sampled trace (v3 negotiation broken?)"; exit 1; }
echo "== flight recorder e2e (/debug/requests holds well-formed fan-out traces)"
curl -fsS "http://$RTR_DEBUG/debug/requests" >/tmp/dcrouter.verify.requests
python3 - <<'PYEOF'
import json
d = json.load(open("/tmp/dcrouter.verify.requests"))
assert d["recorded"] > 0, "flight recorder recorded nothing"
recs = d["requests"]
assert recs, "no requests drained from the recorder"
# Every record must carry a nonzero 16-hex-digit id and sane hops
# (hops append in completion order, so offsets need not be sorted).
for r in recs:
    assert len(r["id"]) == 16 and int(r["id"], 16) != 0, r["id"]
    for h in r["hops"]:
        assert h["offset_us"] >= 0 and h.get("dur_us", 0) >= 0, (r["id"], h)
        assert h["offset_us"] <= r["duration_us"] + 1, (r["id"], h)
# At least one fanned-out batch: split -> shard<i> -> merge hops with
# the split note naming the chunk/worker counts.
batch = next((r for r in recs
              for names in [[h["name"] for h in r["hops"]]]
              if "split" in names and "merge" in names
              and any(n.startswith("shard") for n in names)), None)
assert batch is not None, "no traced batch with split/shard/merge hops"
split = next(h for h in batch["hops"] if h["name"] == "split")
assert "chunks=" in split.get("note", "") and "workers=2" in split["note"], split
assert batch["duration_us"] > 0 and batch["path"] != "none"
print("flight recorder: %d traces, fan-out trace %s ok (%d hops, path=%s)"
      % (d["recorded"], batch["id"], len(batch["hops"]), batch["path"]))
PYEOF
kill -TERM "$RTR_PID"
wait "$RTR_PID" || { echo "dcrouter did not drain cleanly"; cat /tmp/dcrouter.verify.log; exit 1; }
trap - EXIT
grep -q '^drained, exiting' /tmp/dcrouter.verify.log || { echo "dcrouter missing drain banner"; cat /tmp/dcrouter.verify.log; exit 1; }
echo "fleet e2e: router drained cleanly"

echo "== dynamic churn e2e (dcserve -dynamic + dcload update mix, verified end state)"
rm -f /tmp/dcserve.dyn.log
# No expander regime needed here: dynamic mode maintains the incremental
# cluster spanner, so a thin regular graph exercises real topology churn.
/tmp/dcserve.verify -dynamic -n 256 -d 8 -listen 127.0.0.1:0 -oracle-backend exact-cached \
    >/tmp/dcserve.dyn.log 2>&1 &
DYN_PID=$!
trap 'kill "$DYN_PID" 2>/dev/null || true' EXIT
DYN_ADDR=""
for _ in $(seq 1 300); do
    DYN_ADDR=$(sed -n 's/^serving on \([^ ]*\).*/\1/p' /tmp/dcserve.dyn.log)
    [ -n "$DYN_ADDR" ] && break
    sleep 0.1
done
[ -n "$DYN_ADDR" ] || { echo "dynamic dcserve never started serving"; cat /tmp/dcserve.dyn.log; exit 1; }
# -updates drives edge mutations on a dedicated connection while queries
# race them; dcload's exit status asserts the final verify snapshot shows
# the maintained spanner equal to a from-scratch rebuild.
/tmp/dcload.verify -addr "$DYN_ADDR" -duration 2s -conns 2 -batch 1:3,8:1 -updates 50 \
    >/tmp/dcload.dyn.out 2>&1 \
    || { echo "dcload churn run failed"; cat /tmp/dcload.dyn.out /tmp/dcserve.dyn.log; exit 1; }
cat /tmp/dcload.dyn.out
grep -q '^update consistency: .*verified=true consistent=true' /tmp/dcload.dyn.out \
    || { echo "dynamic server end state not verified consistent"; exit 1; }
grep -Eq '^updates: sent=[1-9][0-9]* applied=[1-9]' /tmp/dcload.dyn.out \
    || { echo "no updates were applied during the churn run"; exit 1; }
kill -INT "$DYN_PID"
wait "$DYN_PID" || { echo "dynamic dcserve did not drain cleanly"; cat /tmp/dcserve.dyn.log; exit 1; }
trap - EXIT
echo "dynamic churn e2e: verified consistent end state"

echo "== dcspan CPU profile smoke"
rm -f /tmp/dcspan.verify.pprof
go run ./cmd/dcspan -n 512 -d 96 -trace -cpuprofile /tmp/dcspan.verify.pprof >/dev/null
test -s /tmp/dcspan.verify.pprof || { echo "cpuprofile is empty"; exit 1; }

echo "== dcbench quick smoke (schema-versioned BENCH_*.json)"
BENCH_DIR=$(mktemp -d /tmp/dcbench.verify.XXXXXX)
go run ./cmd/dcbench -quick -workers 2 -iters 1 -out "$BENCH_DIR"
BENCH_COUNT=$(ls "$BENCH_DIR"/BENCH_*.json | wc -l)
[ "$BENCH_COUNT" -ge 4 ] || { echo "dcbench emitted only $BENCH_COUNT scenarios, want >= 4"; exit 1; }
for f in "$BENCH_DIR"/BENCH_*.json; do
    for field in '"schema": "dcspanner/bench"' '"schema_version": 1' \
                 '"ns_per_op"' '"speedup_vs_serial"' '"fingerprint"' \
                 '"deterministic_across_workers": true'; do
        grep -q "$field" "$f" || { echo "$f missing $field"; exit 1; }
    done
done
echo "dcbench: $BENCH_COUNT scenarios validated in $BENCH_DIR"

echo "== dcbench -compare regression gate (self-compare must pass, slowed baseline must fail)"
go run ./cmd/dcbench -quick -workers 2 -iters 1 -run parallel_bfs,churn \
    -out "$BENCH_DIR" -compare "$BENCH_DIR" \
    || { echo "self-comparison against just-written baselines failed"; exit 1; }
# Corrupt one baseline's ns_per_op to 1 so any real timing regresses >25%.
sed 's/"ns_per_op": [0-9]*/"ns_per_op": 1/' "$BENCH_DIR/BENCH_parallel_bfs.json" \
    > "$BENCH_DIR/BENCH_parallel_bfs.json.tmp"
mv "$BENCH_DIR/BENCH_parallel_bfs.json.tmp" "$BENCH_DIR/BENCH_parallel_bfs.json"
if go run ./cmd/dcbench -quick -workers 2 -iters 1 -run parallel_bfs \
    -out /tmp -compare "$BENCH_DIR" 2>/dev/null; then
    echo "-compare did not fail against an impossible baseline"; exit 1
fi
rm -f /tmp/BENCH_parallel_bfs.json
echo "dcbench -compare: gate behaves"
rm -rf "$BENCH_DIR"

echo "verify: OK"
