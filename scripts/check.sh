#!/usr/bin/env bash
# Tier-1 verification plus bench and live-serving smoke tests.
#
# 1. Configure + build everything (honoring CMAKE_BUILD_TYPE / SCP_SANITIZE,
#    reconfiguring if the cached values differ).
# 2. Run the ctest suite (the PR gate: must stay green). QUICK=1 skips the
#    suites labeled "slow" (ctest -LE slow) for a fast inner loop; the
#    default runs everything.
# 3. Smoke-run one figure bench with --json and validate the record, so a
#    bench/JSON regression cannot slip past a green unit-test run.
# 4. Full mode only: smoke the live serving tier — scp_backend answers a
#    kernel-assigned --port 0 and drains cleanly on SIGTERM, and
#    bench/live_serving drives a real loopback cluster and emits valid JSON.
# 5. Full mode only: smoke the sharded reactors — scp_backend --shards 4
#    must serve GETs on every shard and its /metrics aggregate must equal
#    the sum of the per-shard series, and bench/live_serving --fe-shards 4
#    must emit the fe_shards / shard_requests columns.
# 6. Full mode only: smoke the distributed front end — bench/live_serving
#    --fe-fleet 3 (3 FrontendServers behind the edge router) must complete
#    with zero failures and emit the fe_fleet / fe_requests / fe_hits
#    columns.
# 7. Full mode only: smoke hot-key detection — bench/live_serving with
#    --attack adaptive --detect must flag and re-provision keys with a
#    finite detection latency and emit the batching columns, and a benign
#    zipf run with --detect must flag and prefetch nothing.
# 8. Full mode only: smoke the quorum write path — three meshed scp_backend
#    processes keep acking writes with one replica hung, then killed — and
#    bench/live_serving's invalidation-attack write mix must emit the
#    write-path columns with no failed write.
# 9. Full mode only: the end-to-end benchmark's smoke — every workload of
#    bench/e2e/run.sh --smoke must start, run and exit 0, and every run must
#    pass CI's correctness guard (scripts/check_smoke_runs.py).
#
# All failure paths (including an interrupted ctest) propagate a nonzero
# exit: the EXIT trap re-raises the first failing status after killing any
# server processes this script spawned.
#
# Env knobs: BUILD_DIR, JOBS, QUICK=1, CMAKE_BUILD_TYPE, SCP_SANITIZE.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
QUICK="${QUICK:-0}"

# PIDs of live servers spawned below; the trap reaps them on any exit so an
# interrupted run never leaks listeners, and the original exit status (130 on
# SIGINT, ctest's code on test failure) is what the caller sees.
spawned_pids=()
cleanup() {
  local status=$?
  for pid in "${spawned_pids[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  exit "$status"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

configure_args=()
if [[ -n "${CMAKE_BUILD_TYPE:-}" ]]; then
  configure_args+=("-DCMAKE_BUILD_TYPE=${CMAKE_BUILD_TYPE}")
fi
if [[ -n "${SCP_SANITIZE:-}" ]]; then
  configure_args+=("-DSCP_SANITIZE=${SCP_SANITIZE}")
fi

cmake -B "$BUILD_DIR" -S . "${configure_args[@]}" >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS"

ctest_args=(--test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS")
if [[ "$QUICK" == "1" ]]; then
  ctest_args+=(-LE slow)
fi
ctest "${ctest_args[@]}"

validate_json() {
  local path="$1" bench="$2"
  for field in "\"bench\":\"$bench\"" '"params"' '"wall_ms"' '"series"'; do
    if ! grep -q -- "$field" "$path"; then
      echo "check.sh: smoke JSON missing $field ($path)" >&2
      return 1
    fi
  done
}

smoke_json="$BUILD_DIR/smoke_fig5a.json"
rm -f "$smoke_json"
"$BUILD_DIR/bench/fig5a_best_gain" \
  --nodes 100 --items 5000 --rate 10000 --runs 2 --grid-points 2 \
  --cache-list 50,100 --json "$smoke_json" >/dev/null
validate_json "$smoke_json" fig5a_best_gain

if [[ "$QUICK" != "1" ]]; then
  # Live serving smoke 1: scp_backend binds a kernel-assigned port, prints
  # it on stdout, serves a Prometheus scrape, and exits 0 after a SIGTERM
  # drain.
  backend_out="$BUILD_DIR/smoke_backend.out"
  "$BUILD_DIR/src/net/scp_backend" --port 0 --node 0 --nodes 3 \
    --items 64 --metrics-port 0 >"$backend_out" &
  backend_pid=$!
  spawned_pids+=("$backend_pid")
  port=""
  for _ in $(seq 50); do
    port="$(sed -n 's/^PORT \([0-9][0-9]*\)$/\1/p' "$backend_out")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" || "$port" == "0" ]]; then
    echo "check.sh: scp_backend did not print a kernel-assigned port" >&2
    exit 1
  fi
  metrics_port=""
  for _ in $(seq 50); do
    metrics_port="$(sed -n 's/^METRICS_PORT \([0-9][0-9]*\)$/\1/p' \
      "$backend_out")"
    [[ -n "$metrics_port" ]] && break
    sleep 0.1
  done
  if [[ -z "$metrics_port" || "$metrics_port" == "0" ]]; then
    echo "check.sh: scp_backend did not print METRICS_PORT" >&2
    exit 1
  fi
  scrape="$(python3 -c 'import sys, urllib.request
print(urllib.request.urlopen(
    f"http://127.0.0.1:{sys.argv[1]}/metrics", timeout=5).read().decode())' \
    "$metrics_port")"
  if ! grep -q '^# TYPE scp_backend_requests counter$' <<<"$scrape" ||
     ! grep -q '^# TYPE scp_backend_service_us summary$' <<<"$scrape"; then
    echo "check.sh: /metrics scrape missing expected families" >&2
    exit 1
  fi
  kill -TERM "$backend_pid"
  if ! wait "$backend_pid"; then
    echo "check.sh: scp_backend did not exit cleanly on SIGTERM" >&2
    exit 1
  fi

  # Live serving smoke 2: the open-loop load generator against a real
  # loopback cluster (1 frontend + n backends), emitting the standard JSON.
  live_json="$BUILD_DIR/smoke_live_serving.json"
  rm -f "$live_json"
  "$BUILD_DIR/bench/live_serving" \
    --n 3 --d 2 --m 1024 --c 4 --rate 1000 --duration 1 --warmup 0.2 \
    --threads 2 --json "$live_json" >/dev/null
  validate_json "$live_json" live_serving
  for column in cli_svc_p99_us fe_p99_us rtt_p99_us svc_p99_us \
      rps_per_core syscalls_per_req rate_bound \
      coalesced frames_per_req batch_fill; do
    if ! grep -q "\"$column\"" "$live_json"; then
      echo "check.sh: live JSON missing column $column" >&2
      exit 1
    fi
  done
  python3 - "$live_json" <<'EOF'
import json, sys

row = json.load(open(sys.argv[1]))["series"][0]
assert int(row["failures"]) == 0, row["failures"]
EOF
  echo "check.sh: live serving smoke OK"

  # Net micro-bench: the FrameLoop echo round-trip plus the batched
  # wire-frame cost (BM_WireBatch, ns/key at batch 1/8/64), wrapped in the
  # standard {bench,params,wall_ms,series} record as BENCH_net.json.
  bench_net_raw="$BUILD_DIR/bench_net_raw.json"
  bench_net_json="$BUILD_DIR/BENCH_net.json"
  rm -f "$bench_net_raw" "$bench_net_json"
  "$BUILD_DIR/bench/micro_benchmarks" \
    --benchmark_filter='BM_FrameLoopEcho|BM_WireBatch' \
    --benchmark_min_time=0.2 \
    --benchmark_format=json >"$bench_net_raw" 2>/dev/null
  python3 - "$bench_net_raw" "$bench_net_json" <<'EOF'
import json, sys

raw = json.load(open(sys.argv[1]))
series = []
batch_series = []
for b in raw.get("benchmarks", []):
    if b.get("run_type") != "iteration":
        continue
    if b["name"].startswith("BM_WireBatch"):
        batch = int(b["name"].split("/")[1])
        batch_series.append({
            "name": b["name"],
            "batch": batch,
            "ns_per_key": b.get("real_time", 0.0) / batch,
        })
        continue
    entry = {
        "name": b["name"],
        "ns_per_frame": b.get("real_time", 0.0),
        "syscalls_per_frame": b.get("syscalls_per_frame", 0.0),
        "frames_per_wakeup": b.get("frames_per_wakeup", 0.0),
    }
    if b.get("error_occurred"):
        entry["skipped"] = b.get("error_message", "")
    series.append(entry)
assert series, "no BM_FrameLoopEcho runs in benchmark output"
assert batch_series, "no BM_WireBatch runs in benchmark output"
record = {
    "bench": "net_echo",
    "params": {"benchmark": "BM_FrameLoopEcho|BM_WireBatch",
               "batch_sizes": [e["batch"] for e in batch_series]},
    "wall_ms": sum(b.get("real_time", 0) * b.get("iterations", 0)
                   for b in raw.get("benchmarks", [])) / 1e6,
    "series": series + batch_series,
}
# Compact separators: the same "key":value shape JsonWriter emits, which
# is what validate_json greps for.
json.dump(record, open(sys.argv[2], "w"), separators=(",", ":"))
print("BENCH_net.json:", *(f"{e['name']}="
      f"{e['syscalls_per_frame']:.2f}syscalls/frame" for e in series),
      *(f"batch{e['batch']}={e['ns_per_key']:.0f}ns/key"
        for e in batch_series))
EOF
  validate_json "$bench_net_json" net_echo
  if ! grep -q '"ns_per_key"' "$bench_net_json"; then
    echo "check.sh: BENCH_net.json missing BM_WireBatch ns_per_key" >&2
    exit 1
  fi
  echo "check.sh: net micro-bench OK"

  # Sharded smoke 1: scp_backend --shards 4. Drive GETs over several
  # connections, then verify on /metrics.json that the aggregate
  # service-time histogram count equals the sum of the per-shard series and
  # the shared-storage key gauge is not multiplied by the shard count.
  sharded_out="$BUILD_DIR/smoke_backend_sharded.out"
  "$BUILD_DIR/src/net/scp_backend" --port 0 --node 0 --nodes 2 \
    --replication 2 --items 64 --shards 4 --metrics-port 0 \
    >"$sharded_out" &
  sharded_pid=$!
  spawned_pids+=("$sharded_pid")
  sharded_port=""
  sharded_metrics_port=""
  for _ in $(seq 50); do
    sharded_port="$(sed -n 's/^PORT \([0-9][0-9]*\)$/\1/p' "$sharded_out")"
    sharded_metrics_port="$(sed -n \
      's/^METRICS_PORT \([0-9][0-9]*\)$/\1/p' "$sharded_out")"
    [[ -n "$sharded_port" && -n "$sharded_metrics_port" ]] && break
    sleep 0.1
  done
  if [[ -z "$sharded_port" || -z "$sharded_metrics_port" ]]; then
    echo "check.sh: sharded scp_backend did not print its ports" >&2
    exit 1
  fi
  PYTHONPATH=scripts python3 - "$sharded_port" "$sharded_metrics_port" <<'EOF'
import json, socket, sys, urllib.request
import scp_wire

port, metrics_port = int(sys.argv[1]), int(sys.argv[2])
sent = 0
for conn in range(8):  # several connections so multiple shards see traffic
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        for key in range(8):
            reply = scp_wire.call(s, scp_wire.get(key, request_id=sent))
            assert reply.id == sent, (sent, reply.id)
            sent += 1
doc = json.load(urllib.request.urlopen(
    f"http://127.0.0.1:{metrics_port}/metrics.json", timeout=5))
assert doc["counters"]["backend.requests"] == sent, doc["counters"]
shard_counts = [doc["timers"][f"backend.shard{k}.service_us"]["count"]
                for k in range(4)]
aggregate = doc["timers"]["backend.service_us"]["count"]
assert aggregate == sum(shard_counts) == sent, (aggregate, shard_counts)
keys = doc["gauges"]["backend.keys"]
assert 0 < keys <= 64, f"shared storage gauge multiplied by shards? {keys}"
print(f"sharded scrape: aggregate {aggregate} == sum {shard_counts}")
EOF
  kill -TERM "$sharded_pid"
  if ! wait "$sharded_pid"; then
    echo "check.sh: sharded scp_backend did not drain on SIGTERM" >&2
    exit 1
  fi

  # Sharded smoke 2: the load generator against a 4-shard frontend; the
  # JSON row must carry the shard columns.
  sharded_json="$BUILD_DIR/smoke_live_sharded.json"
  rm -f "$sharded_json"
  "$BUILD_DIR/bench/live_serving" \
    --n 3 --d 2 --m 1024 --c 4 --rate 1000 --duration 1 --warmup 0.2 \
    --threads 4 --fe-shards 4 --json "$sharded_json" >/dev/null
  validate_json "$sharded_json" live_serving
  for column in fe_shards shard_requests; do
    if ! grep -q "\"$column\"" "$sharded_json"; then
      echo "check.sh: sharded live JSON missing column $column" >&2
      exit 1
    fi
  done
  echo "check.sh: sharded serving smoke OK"

  # Fleet smoke: a 3-member front-end fleet behind the edge router. The row
  # must carry the fleet columns with one cell per member, and the run must
  # complete without failures (the router hides every fleet REDIRECT).
  fleet_json="$BUILD_DIR/smoke_live_fleet.json"
  rm -f "$fleet_json"
  "$BUILD_DIR/bench/live_serving" \
    --n 3 --d 2 --m 1024 --c 16 --rate 1000 --duration 1 --warmup 0.2 \
    --threads 2 --fe-fleet 3 --json "$fleet_json" >/dev/null
  validate_json "$fleet_json" live_serving
  for column in fe_fleet fe_requests fe_hits; do
    if ! grep -q "\"$column\"" "$fleet_json"; then
      echo "check.sh: fleet live JSON missing column $column" >&2
      exit 1
    fi
  done
  python3 - "$fleet_json" <<'EOF'
import json, sys

row = json.load(open(sys.argv[1]))["series"][0]
assert int(row["fe_fleet"]) == 3, row["fe_fleet"]
per_fe = str(row["fe_requests"]).split("|")
assert len(per_fe) == 3, f"fe_requests must list 3 members: {per_fe}"
assert sum(int(r) for r in per_fe) >= int(row["completed"]), \
    (per_fe, row["completed"])
assert int(row["failures"]) == 0, \
    f"fleet run must complete without failures, got {row['failures']}"
print(f"fleet smoke: per-FE requests {per_fe}, "
      f"live_gain={row['live_gain']}")
EOF
  echo "check.sh: fleet serving smoke OK"

  # Detect smoke: the adaptive hot-key attack against the perfect cache with
  # --detect on. The run must flag keys, re-provision them, report a finite
  # detection latency and carry the batching columns; a benign zipf run
  # with --detect on must flag and prefetch nothing.
  detect_json="$BUILD_DIR/smoke_live_detect.json"
  benign_json="$BUILD_DIR/smoke_live_benign.json"
  rm -f "$detect_json" "$benign_json"
  "$BUILD_DIR/bench/live_serving" \
    --n 8 --d 2 --m 4096 --c 24 --x 24 --preset adversarial \
    --cache perfect --rate 3000 --duration 3 --warmup 0.5 \
    --attack adaptive --shift-period 1 --detect \
    --json "$detect_json" >/dev/null
  validate_json "$detect_json" live_serving
  "$BUILD_DIR/bench/live_serving" \
    --n 8 --d 2 --m 4096 --c 64 --preset zipf --theta 0.9 --cache lru \
    --rate 3000 --duration 3 --warmup 0.5 --detect \
    --json "$benign_json" >/dev/null
  validate_json "$benign_json" live_serving
  python3 - "$detect_json" "$benign_json" <<'EOF'
import json, sys

row = json.load(open(sys.argv[1]))["series"][0]
assert int(row["flagged"]) > 0, f"adaptive attack flagged no keys: {row}"
assert int(row["reprovisioned"]) > 0, \
    f"perfect cache re-provisioned nothing: {row}"
assert float(row["det_latency_s"]) >= 0, \
    f"no detection latency measured: {row['det_latency_s']}"
for column in ("frames_per_req", "coalesced", "batch_fill"):
    assert column in row, f"adaptive row missing batching column {column!r}"
# A batch that carries keys carries at least one per frame.
assert float(row["frames_per_req"]) >= 0, row["frames_per_req"]
assert float(row["batch_fill"]) <= 0 or float(row["batch_fill"]) >= 1.0, \
    f"batch_fill below 1 key/frame: {row['batch_fill']}"
print(f"detect smoke: flagged={row['flagged']} "
      f"det_latency_s={row['det_latency_s']} "
      f"peak_gain_w={row['peak_gain_w']} "
      f"frames_per_req={row['frames_per_req']} "
      f"batch_fill={row['batch_fill']}")

row = json.load(open(sys.argv[2]))["series"][0]
assert int(row["flagged"]) == 0 and int(row["prefetches"]) == 0, \
    f"benign zipf raised a false positive: {row}"
print("detect smoke: benign zipf flagged and prefetched nothing")
EOF
  echo "check.sh: detect serving smoke OK"

  # Quorum write smoke: three meshed backends (N=3, R=W=2). A PUT through
  # one coordinator must be readable through another. While one replica
  # hangs (SIGSTOP), PUTs through a coordinator are still acked at once;
  # resumed, it answers its peers' pings and is back in fan-out. Then the
  # write must survive the replica being SIGKILLed, and the surviving pair
  # must still accept writes. The python block owns the process lifecycle
  # (spawn, stop, kill, reap) so a failure mid-scenario cannot leak
  # listeners.
  PYTHONPATH=scripts python3 - "$BUILD_DIR/src/net/scp_backend" <<'EOF'
import signal, socket, subprocess, sys, time
import scp_wire

backend = sys.argv[1]

def free_ports(count):
    socks = [socket.socket() for _ in range(count)]
    for s in socks:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports

def put(port, key, value):
    return scp_wire.roundtrip(port, scp_wire.put(key, value))

def quorum_get(port, key):
    return scp_wire.roundtrip(port, scp_wire.quorum_get(key))

ports = free_ports(3)
peers = ",".join(f"127.0.0.1:{p}" for p in ports)
procs = []
try:
    for node, port in enumerate(ports):
        procs.append(subprocess.Popen(
            [backend, "--port", str(port), "--node", str(node),
             "--nodes", "3", "--replication", "3", "--items", "0",
             "--write-quorum", "2", "--read-quorum", "2",
             "--peers", peers],
            stdout=subprocess.DEVNULL))

    # The mesh dials asynchronously; retry the first write until the
    # coordinator can reach W=2.
    value = b"quorum smoke value"
    deadline = time.time() + 10.0
    while True:
        try:
            reply = put(ports[0], 7, value)
            if reply.type == scp_wire.WRITE_REPLY:
                break
        except OSError:
            pass
        assert time.time() < deadline, "PUT never reached W=2"
        time.sleep(0.1)

    # Read-your-write through a different coordinator.
    reply = quorum_get(ports[1], 7)
    assert reply.type == scp_wire.VALUE, f"expected kValue, got {reply.type}"
    assert reply.value == value, reply.value

    # Hang one replica. Nodes 0 and 1 still make W=2, so each PUT through
    # node 0 is acked at once. The PUTs span 2 s: the replicates they leave
    # on node 2's link outlive its 1 s deadline, which resets the link and
    # keeps node 2 out of fan-out.
    procs[2].send_signal(signal.SIGSTOP)
    for i in range(5):
        time.sleep(0.5 if i > 0 else 0.0)
        start = time.time()
        reply = put(ports[0], 100 + i, b"written while node 2 hangs")
        took = time.time() - start
        assert reply.type == scp_wire.WRITE_REPLY, \
            f"PUT {i} while node 2 hangs: type {reply.type}"
        assert took < 2.0, f"PUT {i} while node 2 hangs took {took:.2f} s"

    # Resumed, node 2 answers the ping on node 0's re-dialed link and gets
    # the next write's replicate.
    procs[2].send_signal(signal.SIGCONT)
    fresh = b"written after node 2 resumed"
    deadline = time.time() + 10.0
    while True:
        try:
            if put(ports[0], 9, fresh).type == scp_wire.WRITE_REPLY:
                reply = scp_wire.roundtrip(ports[2], scp_wire.get(9))
                if reply.type == scp_wire.VALUE and reply.value == fresh:
                    break
        except OSError:
            pass
        assert time.time() < deadline, \
            "node 2 never got a write after it resumed"
        time.sleep(0.1)

    # Crash one replica; R=2 over the survivors still answers...
    procs[2].send_signal(signal.SIGKILL)
    procs[2].wait()
    deadline = time.time() + 10.0
    while True:
        try:
            reply = quorum_get(ports[0], 7)
            if reply.type == scp_wire.VALUE and reply.value == value:
                break
        except OSError:
            pass
        assert time.time() < deadline, "quorum read failed after crash"
        time.sleep(0.1)

    # ...and W=2 is still reachable for fresh writes.
    deadline = time.time() + 10.0
    while True:
        try:
            reply = put(ports[1], 8, b"post-crash write")
            if reply.type == scp_wire.WRITE_REPLY:
                break
        except OSError:
            pass
        assert time.time() < deadline, "PUT failed after one replica crash"
        time.sleep(0.1)
    print("quorum smoke: writes survived a hung and a crashed replica "
          "(N=3, R=W=2)")
finally:
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGCONT)
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
EOF
  echo "check.sh: quorum write smoke OK"

  # Write mix: the invalidation attack sends a fifth of its ops as PUTs of
  # fresh bytes to the front end's cached keys, over a d=3, W=2 mesh. Below
  # the fleet smoke's rate: every PUT costs a replication round trip.
  writes_json="$BUILD_DIR/smoke_live_writes.json"
  rm -f "$writes_json"
  "$BUILD_DIR/bench/live_serving" \
    --n 4 --d 3 --m 4096 --c 32 --preset adversarial \
    --rate 1200 --duration 2 --warmup 0.5 --threads 2 \
    --write-frac 0.2 --attack invalidate --json "$writes_json" >/dev/null
  validate_json "$writes_json" live_serving
  python3 - "$writes_json" <<'EOF'
import json, sys

row = json.load(open(sys.argv[1]))["series"][0]
for column in ("write_frac", "puts", "put_failures", "invalidations",
               "replications", "rebalanced_keys", "live_gain", "failures"):
    assert column in row, f"write-mix row missing column {column!r}"
assert abs(float(row["write_frac"]) - 0.2) <= 1e-9, row["write_frac"]
assert int(row["puts"]) > 0, f"write mix produced no PUTs: {row['puts']}"
assert int(row["put_failures"]) == 0, \
    f"quorum writes failed: {row['put_failures']}"
assert int(row["invalidations"]) > 0, \
    f"the attack dropped no cached bytes: {row['invalidations']}"
assert int(row["replications"]) > 0, \
    f"d=3 W=2 writes must replicate over the mesh: {row['replications']}"
assert int(row["rebalanced_keys"]) == 0, \
    f"no membership change ran, yet rebalanced_keys={row['rebalanced_keys']}"
print(f"write mix: puts={row['puts']} "
      f"invalidations={row['invalidations']} "
      f"replications={row['replications']} live_gain={row['live_gain']}")
EOF
  echo "check.sh: write mix smoke OK"

  bash bench/e2e/run.sh --smoke
  python3 scripts/check_smoke_runs.py build/e2e/runs/*.txt
  echo "check.sh: benchmark smoke OK"
fi

echo "check.sh: OK (tests green, smoke bench JSON validated)"
