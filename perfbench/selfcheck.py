#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py

Runs every workload for SECONDS on seed SEED, twice untraced and once
traced, and asserts that:
  * every output check passes and no op fails;
  * the exact counts (probes, calls dispatched and contained, documents
    aggregated, requests answered, ...) and the output digests repeat
    between runs;
  * the traced run reports every per-layer metric of BENCHMARK.json and
    agrees with the untraced runs on the counts.
Exits 1 on the first workload that fails. Takes about 20 s once the
benchmark binary is built.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

SEED = 7
SECONDS = 1.0


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    suffix = ".trace" if trace else ""
    record = json.loads((run.build_dir() / "results" / f"{workload}-seed{SEED}{suffix}.json").read_text())
    return line, record


def check_workload(workload, spec):
    runs = [bench(workload, 0) for _ in range(2)]
    traced_line, traced = bench(workload, 1)
    for line, record in runs + [(traced_line, traced)]:
        failing = [name for name, c in record["checks"].items() if not c["pass"]]
        assert line["correct"] and not failing, f"output checks failed: {failing}"
        assert line["attempted"] >= 1 and line["failed"] == 0, \
            f"{line['failed']} of {line['attempted']} ops failed"
    (_, first), (_, second) = runs
    for field in ("counts", "digest"):
        assert first[field] == second[field], f"{field} differ between runs: " \
            f"{first[field]} vs {second[field]}"
        assert traced[field] == first[field], f"traced {field} differ from untraced"
    expected = {e["name"] for e in spec["end_to_end"]}
    assert set(runs[0][0]["metrics"]) == expected, "untraced metrics differ from BENCHMARK.json"
    expected = {e["name"] for e in spec["per_layer"]}
    assert set(traced_line["metrics"]) == expected, "traced metrics differ from BENCHMARK.json"


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        try:
            check_workload(workload, spec)
        except AssertionError as error:
            print(f"FAIL {workload}: {error}")
            return 1
        print(f"PASS {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
