#!/usr/bin/env python3
"""Fails unless every benchmark smoke run is correct and fails <= 0.1% of ops.

    python3 scripts/check_smoke_runs.py build/e2e/runs/*.txt

Each file holds one run's stdout, whose last non-blank line is the run's
JSON record (bench/e2e/run.sh --smoke writes one per workload). Reply
matching is checked by the workloads themselves: a run is correct when no
reply had the wrong class, the wrong bytes or no matching request. write_mix,
where a backend acks PUTs after GETs sent later, is the run this guards.
"""
import json
import sys

for path in sys.argv[1:]:
    lines = [l for l in open(path).read().splitlines() if l.strip()]
    run = json.loads(lines[-1])
    share = run["failed"] / max(run["attempted"], 1)
    print(f"{path}: correct={run['correct']} "
          f"failed={run['failed']}/{run['attempted']}")
    assert run["correct"], f"{path}: a reply was wrong"
    assert share <= 0.001, f"{path}: {share:.4f} of ops failed"
