#!/usr/bin/env python3
"""The repository benchmark: builds its binary from source and runs one workload.

    python3 perfbench/run.py --workload derive|hardened-app|fleet \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) in Release under $CARGO_TARGET_DIR
(default .bench_build); later runs only rebuild what changed.

It prints the result stamp, every metric with its unit and sample count, the
ops attempted and failed, and each output check as PASS or FAIL. The last
line of standard output is the result as one JSON object. With --trace 0 it
holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones; the traced run also prints the per-layer table and the tracing
overhead. Full results go to <build>/results/. See perfbench/NOTES.md.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("derive", "hardened-app", "fleet")
BINARY_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def cache_value(cache, key):
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build(bdir):
    """Configures (once) and builds the benchmark binary; refuses a non-Release tree."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"HEALERS sources not found at {ROOT / 'src'}")
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = bdir / "CMakeCache.txt"
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(bdir), "--target", "healers_perfbench", "-j", jobs])
        with open(log, "w") as out:
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    tail = log.read_text().splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    fail(f"build failed; see {log}", 1)
        build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
        if build_type != "Release":
            fail(f"{bdir} is a '{build_type or 'unconfigured'}' tree; the benchmark needs "
                 "Release. Remove the directory to reconfigure. Refusing to run.")
    return bdir / "healers_perfbench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the sources the benchmark binary is built from (paths and bytes)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def per_unit_times(result):
    """A layer's median per-op time divided by its per-op count."""
    layers, counts = result["layers"], result["counts"]
    out = {}
    for name, span, count, scale in (
            ("injector.us_per_probe", "injector.campaign", "injector.probes_executed", 1e3),
            ("linker.ns_per_call", "linker.entry", "linker.calls_dispatched", 1e6),
            ("fleet.flush_us_per_doc", "fleet.flush", "fleet.aggregated", 1e3)):
        if span in layers and counts.get(count):
            out[name] = layers[span]["ms"] * scale / counts[count]
    return out


def trace_overhead(result):
    """Relative growth of the gated tail latency when ops are traced."""
    return result["traced"]["op_p90_ms"] / result["untraced"]["op_p90_ms"] - 1.0


def per_layer_value(name, result):
    """One per-layer metric of BENCHMARK.json from a traced result.

    Shares and counts of layers the workload does not exercise read 0.
    """
    if name == "trace.overhead":
        return trace_overhead(result)
    if name.endswith(".share"):
        return result["layers"].get(name[: -len(".share")], {}).get("share", 0.0)
    return result["counts"].get(name, 0)


def end_to_end_value(name, result):
    window = result["untraced"]
    values = {
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p90_ms": window["op_p90_ms"],
    }
    if name not in values:
        fail(f"BENCHMARK.json names an end-to-end metric this benchmark does not measure: {name}")
    return values[name]


def print_report(args, result, stamp, metrics, spec):
    """Prints the human-readable report; returns (attempted, failed)."""
    print(f"perfbench {args.workload}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}")
    print("stamp: " + "  ".join(f"{k}={v}" for k, v in stamp.items()))
    print("params: " + json.dumps(result["params"], sort_keys=True))
    untraced = result["untraced"]
    ops = untraced["ops"]
    if args.trace:
        print(f"per-layer report (traced ops, n={result['traced']['ops']}):")
        print(layer_table(result), end="")
    else:
        samples = {
            "setup_s": f"median of {result['setup_groups']} group means over "
                       f"{len(result['setup_samples_s'])} set-ups",
            "peak_rss_mb": "whole process",
            "op_p90_ms": f"n={ops} ops, {ops // 10} beyond",
        }
        print("end-to-end metrics:")
        for entry in spec["end_to_end"]:
            name = entry["name"]
            print(f"  {name:<12} {metrics[name]:>18.6f} {entry['unit']:<4} ({samples[name]})")
        # Reported, not gated: they move with the host's contention phases
        # (NOTES.md, "Host facts").
        print(f"  {'work_per_s':<12} {untraced['work_per_s']:>18.6f} 1/s  "
              f"({result['work_unit']} per second of op time; reported, not gated)")
        for key, beyond in (("op_p50_ms", 0.5), ("op_p99_ms", 0.01)):
            print(f"  {key:<12} {untraced[key]:>18.6f} ms   (n={ops} ops, "
                  f"{int(ops * beyond)} beyond; reported, not gated)")
    windows = [untraced] + ([result["traced"]] if args.trace else [])
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    share = 100.0 * failed / attempted if attempted else 0.0
    print(f"ops attempted {attempted}, failed {failed} ({share:.3f}%)")
    print(f"output checks: {'PASS' if result['correct'] else 'FAIL'}")
    for name, check in sorted(result["checks"].items()):
        mark = "PASS" if check["pass"] else "FAIL"
        detail = "" if check["pass"] else f"  ({check['detail']})"
        print(f"  [{mark}] {name} x{check['evaluated']}{detail}")
    if result.get("digest"):
        print(f"summary digest: {result['digest']}")
    return attempted, failed


def layer_table(result):
    """The traced-run report: self time, share and counts per op, overhead."""
    lines = [f"{'layer span':<22} {'self ms/op':>12} {'share':>8}"]
    for name, layer in sorted(result["layers"].items(), key=lambda kv: -kv[1]["share"]):
        lines.append(f"{name:<22} {layer['ms']:>12.6f} {layer['share']:>8.4f}")
    lines.append("per op (counts are exact for the seed):")
    per_op = {**result["counts"], **result["extras"], **per_unit_times(result)}
    for name, value in sorted(per_op.items()):
        lines.append(f"  {name:<34} {value}")
    lines.append("tracing overhead (traced vs untraced ops, interleaved in this run):")
    for key in ("op_p90_ms", "op_p50_ms", "work_per_s"):
        base, traced = result["untraced"][key], result["traced"][key]
        delta = (traced / base - 1.0) * 100 if base else 0.0
        lines.append(f"  {key:<12} untraced {base:.6f}  traced {traced:.6f}  ({delta:+.2f}%)")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())

    bdir = build_dir()
    binary = build(bdir)
    results = bdir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    suffix = ".trace" if args.trace else ""
    raw = results / f"{stem}{suffix}.raw.json"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(raw),
               "--work-dir", str(bdir / "work" / stem)]
    if args.trace:
        command += ["--spans", str(results / f"{stem}.spans.csv")]
    try:
        proc = subprocess.run(command, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {BINARY_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"healers_perfbench exited with status {proc.returncode}", 1)
    result = json.loads(raw.read_text())
    if result.get("build_type") != "Release":
        fail(f"healers_perfbench was built as {result.get('build_type')!r}, not Release")

    stamp = {
        "nproc": result["nproc"],
        "compiler": result["compiler"].replace(" ", "-"),
        "build_type": result["build_type"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workload_seed": args.seed,
        "threads": result["threads"],
    }
    entries = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        metrics = {e["name"]: per_layer_value(e["name"], result) for e in entries}
    else:
        metrics = {e["name"]: end_to_end_value(e["name"], result) for e in entries}

    attempted, failed = print_report(args, result, stamp, metrics, spec)
    record = dict(result, stamp=stamp, metrics=metrics)
    (results / f"{stem}{suffix}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        (results / f"{stem}.trace.txt").write_text(layer_table(result))
    print(f"results: {results / (stem + suffix + '.json')}")

    out = {
        "correct": bool(result["correct"]),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in entries},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
