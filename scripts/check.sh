#!/usr/bin/env bash
# Tier-1 verification plus bench and live-serving smoke tests.
#
# 1. Configure + build everything (honoring CMAKE_BUILD_TYPE / SCP_SANITIZE,
#    reconfiguring if the cached values differ).
# 2. Run the ctest suite (the PR gate: must stay green). QUICK=1 skips the
#    suites labeled "slow" (ctest -LE slow) for a fast inner loop; the
#    default runs everything.
# 3. Smoke-run one figure bench and the failure ablation with --json and
#    validate each record (bench name, params, wall_ms > 0, a non-empty
#    series), so a bench/JSON regression cannot slip past a green unit-test
#    run.
# 4. Full mode only: smoke the live serving tier — scp_backend answers a
#    kernel-assigned --port 0 and drains cleanly on SIGTERM; a 4-shard
#    scp_frontend over 3 scp_backend processes answers GETs with their ids
#    and exports well-formed Prometheus text whose shard series sum to the
#    aggregate; scp_router in front of a 3-member scp_frontend fleet hides
#    every fleet redirect and exports its dispatch spread; every process
#    drains on SIGTERM. bench/live_serving drives the in-process tier and
#    emits valid JSON whose latency decomposition nests.
# 5. Full mode only: smoke the sharded reactors — scp_backend --shards 4
#    must serve GETs on every shard and its /metrics aggregate must equal
#    the sum of the per-shard series, and bench/live_serving --fe-shards 4
#    must emit the fe_shards / shard_requests columns.
# 6. Full mode only: smoke the distributed front end — bench/live_serving
#    --fe-fleet 3 (3 FrontendServers behind the edge router) must complete
#    with zero failures and emit the fe_fleet / fe_requests / fe_hits
#    columns, one cell per member.
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

# The standard bench record: {bench, params, wall_ms > 0, series: [rows]}.
validate_json() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

path, bench = sys.argv[1], sys.argv[2]
record = json.load(open(path))
for field in ("bench", "params", "wall_ms", "series"):
    assert field in record, f"{path}: missing field {field!r}"
assert record["bench"] == bench, f"{path}: bench is {record['bench']!r}"
assert isinstance(record["wall_ms"], (int, float)) and record["wall_ms"] > 0, \
    f"{path}: wall_ms missing or not positive"
assert isinstance(record["series"], list) and record["series"], \
    f"{path}: series missing or empty"
EOF
}

smoke_json="$BUILD_DIR/smoke_fig5a.json"
rm -f "$smoke_json"
"$BUILD_DIR/bench/fig5a_best_gain" \
  --nodes 100 --items 5000 --rate 10000 --runs 2 --grid-points 2 \
  --cache-list 50,100 --json "$smoke_json" >/dev/null
validate_json "$smoke_json" fig5a_best_gain
failures_json="$BUILD_DIR/smoke_ablation_failures.json"
rm -f "$failures_json"
"$BUILD_DIR/bench/ablation_failures" \
  --runs 2 --frac-list 0,0.1 --recovery-list 0.5 \
  --json "$failures_json" >/dev/null
validate_json "$failures_json" ablation_failures

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

  # Process probes: a 4-shard scp_frontend over 3 scp_backend processes,
  # then scp_router in front of a 3-member scp_frontend fleet. Each tier is
  # probed on the wire and on its metrics endpoint, then drained with
  # SIGTERM. The python block owns the process lifecycle, so a failure
  # mid-probe cannot leak listeners.
  PYTHONPATH=scripts python3 - "$BUILD_DIR/src/net" <<'EOF'
import json, re, signal, socket, subprocess, sys, urllib.request
import scp_wire

bin_dir = sys.argv[1]
procs = []

def spawn(binary, *args):
    """Starts `binary --port 0 args`; returns the ports it prints."""
    proc = subprocess.Popen([f"{bin_dir}/{binary}", "--port", "0", *args],
                            stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    want = {"PORT", "METRICS_PORT"} if "--metrics-port" in args else {"PORT"}
    ports = {}
    while not want <= ports.keys():
        line = proc.stdout.readline()
        assert line, f"{binary} exited before printing {want}"
        name, _, value = line.strip().partition(" ")
        if name in want:
            ports[name] = int(value)
    return ports

def drain():
    for proc in procs:
        proc.send_signal(signal.SIGTERM)
    for proc in procs:
        assert proc.wait(timeout=10) == 0, \
            f"{proc.args[0]}: unclean SIGTERM exit {proc.returncode}"
    procs.clear()

def backends(*extra):
    return ",".join(
        str(spawn("scp_backend", "--node", str(node), "--nodes", "3",
                  "--replication", "2", "--partition-seed", "1",
                  "--items", "4096", *extra)["PORT"])
        for node in range(3))

def get(sock, key):
    reply = scp_wire.call(sock, scp_wire.get(key, request_id=key))
    assert reply.id == key, (key, reply.id)
    return reply

try:
    # A 4-shard front end: GETs echo their ids, and the exposition format
    # and per-shard sums hold on a live scrape.
    fe = spawn("scp_frontend", "--nodes", "3", "--replication", "2",
               "--partition-seed", "1", "--items", "4096",
               "--cache-capacity", "64",
               "--backends", backends("--metrics-port", "0"),
               "--shards", "4", "--metrics-port", "0")
    with socket.create_connection(("127.0.0.1", fe["PORT"]), timeout=5) as s:
        assert get(s, 7).type == scp_wire.VALUE
        assert get(s, 1 << 20).type == scp_wire.MISS
    base = f"http://127.0.0.1:{fe['METRICS_PORT']}"
    text = urllib.request.urlopen(base + "/metrics", timeout=5).read().decode()
    assert text.endswith("\n"), "exposition must end with a newline"
    sample = re.compile(
        r'^scp_[a-zA-Z0-9_:]+(\{quantile="[0-9.]+"\})? -?[0-9.eE+-]+$')
    typed = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            name, kind = line.split()[2:4]
            assert kind in ("counter", "gauge", "summary"), line
            typed.add(name)
        elif not line.startswith("#"):
            assert sample.match(line), f"malformed sample line: {line}"
    families = ["scp_frontend_requests", "scp_frontend_hits",
                "scp_frontend_backends_up", "scp_frontend_request_us"]
    families += [f"scp_frontend_shard{k}_{series}"
                 for k in range(4) for series in ("requests", "request_us")]
    for family in families:
        assert family in typed, f"missing TYPE for {family}"
    assert re.search(r"^scp_frontend_requests 2$", text, re.M), \
        "the probe sent 2 GETs; the scrape must reflect them"
    doc = json.load(urllib.request.urlopen(base + "/metrics.json", timeout=5))
    assert doc["counters"]["frontend.requests"] == 2, doc["counters"]
    shard_requests = [doc["counters"][f"frontend.shard{k}.requests"]
                      for k in range(4)]
    assert sum(shard_requests) == 2, shard_requests
    shard_counts = [doc["timers"][f"frontend.shard{k}.request_us"]["count"]
                    for k in range(4)]
    aggregate = doc["timers"]["frontend.request_us"]["count"]
    assert aggregate == sum(shard_counts) == 2, (aggregate, shard_counts)
    drain()
    print(f"process probe: 4-shard front end ok ({len(typed)} families)")

    # A 3-member fleet behind the router (endpoint order = fleet index).
    backend_ports = backends()
    members = [spawn("scp_frontend", "--nodes", "3", "--replication", "2",
                     "--partition-seed", "1", "--items", "4096",
                     "--cache-capacity", "66", "--backends", backend_ports,
                     "--fleet", "3", "--fleet-index", str(member),
                     "--fleet-seed", "42")["PORT"]
               for member in range(3)]
    router = spawn("scp_router", "--frontends", ",".join(map(str, members)),
                   "--fleet-seed", "42", "--metrics-port", "0")
    # Through the router every key answers kValue (a key beyond --items
    # kMiss), though the cache is split 3 ways: no redirect reaches a
    # client.
    with socket.create_connection(("127.0.0.1", router["PORT"]),
                                  timeout=5) as s:
        for key in range(64):
            assert get(s, key).type == scp_wire.VALUE, key
        assert get(s, 1 << 20).type == scp_wire.MISS
    # Straight at member 0, a key another member owns answers kRedirect:
    # single-copy ownership observed on the wire.
    with socket.create_connection(("127.0.0.1", members[0]), timeout=5) as s:
        kinds = [get(s, key).type for key in range(64)]
    redirects = kinds.count(scp_wire.REDIRECT)
    values = kinds.count(scp_wire.VALUE)
    assert redirects > 0 and values > 0, (redirects, values)
    doc = json.load(urllib.request.urlopen(
        f"http://127.0.0.1:{router['METRICS_PORT']}/metrics.json", timeout=5))
    c, g = doc["counters"], doc["gauges"]
    assert g["router.frontends_up"] == 3 and g["router.fleet_size"] == 3, g
    assert c["router.requests"] == 65 and c["router.failures"] == 0, c
    # Every member is up, so each GET went straight to its owner.
    assert c["router.redirects_followed"] == 0, c
    spread = [c[f"router.dispatches.fe{k}"] for k in range(3)]
    assert sum(spread) == c["router.attempts_total"], (spread, c)
    drain()
    print(f"process probe: fleet ok (member 0 owns {values} of 64 keys, "
          f"router dispatch spread {spread})")
finally:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
EOF

  # Live serving smoke 2: the open-loop load generator against the
  # in-process loopback tier (1 front end + n backends), emitting the
  # standard JSON.
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
  # A longer adversarial run: the syscall and batching columns, and the
  # latency decomposition, whose server-side p99 nests inside the client's.
  adversarial_json="$BUILD_DIR/smoke_live_adversarial.json"
  rm -f "$adversarial_json"
  "$BUILD_DIR/bench/live_serving" \
    --n 3 --d 2 --m 4096 --c 4 --preset adversarial \
    --rate 2000 --duration 2 --warmup 0.5 --threads 2 \
    --json "$adversarial_json" >/dev/null
  validate_json "$adversarial_json" live_serving
  python3 - "$adversarial_json" <<'EOF'
import json, sys

row = json.load(open(sys.argv[1]))["series"][0]
for column in ("throughput_qps", "live_gain", "p99_us", "cli_svc_p99_us",
               "fe_p99_us", "rtt_p99_us", "svc_p99_us", "fe_shards",
               "shard_requests", "rps_per_core", "syscalls_per_req",
               "frames_per_req", "coalesced", "batch_fill", "rate_bound"):
    assert column in row, f"row missing column {column!r}"
assert int(row["fe_shards"]) == 1, row["fe_shards"]
assert float(row["rps_per_core"]) > 0 and float(row["syscalls_per_req"]) > 0, \
    (row["rps_per_core"], row["syscalls_per_req"])
assert float(row["frames_per_req"]) >= 0 and int(row["coalesced"]) >= 0, \
    (row["frames_per_req"], row["coalesced"])
# batch_fill is keys per kBatchGet frame, 0 when no batch frame was sent.
assert float(row["batch_fill"]) == 0.0 or float(row["batch_fill"]) >= 1.0, \
    row["batch_fill"]
cli, fe = float(row["cli_svc_p99_us"]), float(row["fe_p99_us"])
assert 0 < fe <= cli, f"decomposition broken: fe_p99={fe} cli_svc_p99={cli}"
assert cli / fe <= 100, f"server/client p99 differ by >100x: {fe} vs {cli}"
print(f"live smoke: live_gain={row['live_gain']} cli_svc_p99_us={cli} "
      f"fe_p99_us={fe}")
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
json.dump(record, open(sys.argv[2], "w"))
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
  # A longer flat run: every shard's request count is in the row, and
  # together they cover every completed GET.
  flat_json="$BUILD_DIR/smoke_live_sharded_flat.json"
  rm -f "$flat_json"
  "$BUILD_DIR/bench/live_serving" \
    --n 3 --d 2 --m 4096 --c 64 --preset flat \
    --rate 2000 --duration 2 --warmup 0.5 --threads 4 \
    --fe-shards 4 --json "$flat_json" >/dev/null
  validate_json "$flat_json" live_serving
  python3 - "$flat_json" <<'EOF'
import json, sys

row = json.load(open(sys.argv[1]))["series"][0]
assert int(row["fe_shards"]) == 4, row["fe_shards"]
per_shard = str(row["shard_requests"]).split("|")
assert len(per_shard) == 4, f"shard_requests must list 4 shards: {per_shard}"
assert sum(int(r) for r in per_shard) >= int(row["completed"]), \
    (per_shard, row["completed"])
EOF
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
  # The adversary against a larger fleet: every member gets requests, and
  # fe_hits has one cell per member.
  fleet_adv_json="$BUILD_DIR/smoke_live_fleet_adversarial.json"
  rm -f "$fleet_adv_json"
  "$BUILD_DIR/bench/live_serving" \
    --n 8 --d 2 --m 4096 --c 40 --preset adversarial \
    --rate 2000 --duration 2 --warmup 0.5 --threads 2 \
    --fe-fleet 3 --json "$fleet_adv_json" >/dev/null
  validate_json "$fleet_adv_json" live_serving
  python3 - "$fleet_adv_json" <<'EOF'
import json, sys

row = json.load(open(sys.argv[1]))["series"][0]
for column in ("fe_fleet", "fe_requests", "fe_hits", "live_gain", "failures",
               "completed"):
    assert column in row, f"row missing column {column!r}"
assert int(row["fe_fleet"]) == 3, row["fe_fleet"]
assert int(row["failures"]) == 0, \
    f"fleet run must complete cleanly, failures={row['failures']}"
per_fe = str(row["fe_requests"]).split("|")
assert len(per_fe) == 3, f"fe_requests must list 3 members: {per_fe}"
assert sum(int(r) for r in per_fe) >= int(row["completed"]), \
    (per_fe, row["completed"])
assert min(int(r) for r in per_fe) > 0, f"a member got no requests: {per_fe}"
assert len(str(row["fe_hits"]).split("|")) == 3, row["fe_hits"]
print(f"fleet smoke: adversarial per-FE requests {per_fe}, "
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
