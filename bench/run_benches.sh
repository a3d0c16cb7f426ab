#!/usr/bin/env bash
# Runs the benchmarks with committed artifacts and rewrites them at the repo
# root:
#   BENCH_fig2.json  campaign engine modes, fork-vs-fresh state cost, probe kinds
#   BENCH_f6.json    multi-worker fleet ingest and the XML-vs-binary codecs
#   BENCH_f7.json    virtual-time fleet simulation (hosts/s, drop/shed rates)
#   BENCH_d5.json    benign-path cost of the repair wrapper
#
# Every row runs on the wall clock, five repetitions, reported as mean,
# median, stddev and cv. Each artifact's context is stamped with the host's
# core count, the compiler, the build type, the git commit and a digest of
# src/ and bench/ (tools/bench_stamps.py's, computed as perfbench/run.py's
# source_digest() does), and the script checks every artifact it writes
# against that stamp.
#
# Benchmarks are only meaningful from an optimized, assertion-free build, so
# this script builds and uses the `release` preset (-O3 -DNDEBUG) by default
# and refuses Debug build trees. The context's "library_build_type" field is
# how the system libbenchmark was packaged, not this repo's build type; the
# stamp's "build_type" is.
#
# Usage: bench/run_benches.sh [build-dir]   (default: build-release via the
#        release preset; pass an explicit tree to override)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

if [[ $# -ge 1 ]]; then
  build="$1"
else
  build="$root/build-release"
  cmake --preset release -S "$root" >/dev/null
fi

# Refuse debug trees, warn on anything that is not a true Release build:
# timings from -O0 or assert-laden binaries are not comparable.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$build_type" == "Debug" || "$build_type" == "" ]]; then
  echo "error: '$build' is a ${build_type:-unconfigured} tree; benchmarks need the" >&2
  echo "       release preset (cmake --preset release). Refusing to run." >&2
  exit 1
fi
if [[ "$build_type" != "Release" ]]; then
  echo "warning: '$build' is a $build_type tree, not Release; timings will be" >&2
  echo "         pessimistic. Prefer: bench/run_benches.sh (uses the release preset)" >&2
fi

# Artifact name -> bench binary. This one table drives the build, the runs,
# the stamp check and the stray-artifact check below.
declare -A benches=(
  [BENCH_fig2.json]=bench_fig2_robust_api
  [BENCH_f6.json]=bench_f6_fleet_ingest
  [BENCH_f7.json]=bench_f7_fleet_sim
  [BENCH_d5.json]=bench_d5_repair
)

# Every BENCH_*.json at the repo root must be one this script writes: a stray
# name (a typo'd output path, a bench removed without its artifact) would sit
# in review looking like a tracked result nobody regenerates.
for artifact in "$root"/BENCH_*.json; do
  [[ -e "$artifact" ]] || continue
  name="$(basename "$artifact")"
  if [[ -z "${benches[$name]+x}" ]]; then
    echo "error: unknown benchmark artifact '$name' at the repo root;" >&2
    echo "       add it to the benches table in bench/run_benches.sh or delete it." >&2
    exit 1
  fi
done

cmake --build "$build" -j --target "${benches[@]}"

# tools/bench_stamps.py holds the one definition of the digest, and reports
# which committed artifacts it no longer matches.
source_digest() {
  python3 "$root/tools/bench_stamps.py" --digest
}

cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$build/CMakeCache.txt")"
sha="$(git -C "$root" rev-parse --short=12 HEAD)"
[[ -z "$(git -C "$root" status --porcelain -- src bench)" ]] || sha="$sha+uncommitted"
digest="$(source_digest)"
context="nproc=$(nproc),compiler=$("$cxx" --version | head -n1 | tr ',' ' '),build_type=$build_type"
context="$context,git_sha=$sha,source_digest=$digest"

# The stamp check: the context names this tree, and every row is a
# wall-clock row with at least five repetitions and their median and stddev.
check_stamp() {
  python3 - "$1" "$digest" "$build_type" <<'EOF'
import collections, json, sys
path, digest, build_type = sys.argv[1:]
doc = json.load(open(path))
context = doc["context"]
errors = []
for key in ("nproc", "compiler", "build_type", "git_sha", "source_digest"):
    if not context.get(key):
        errors.append(f"context lacks {key}")
if context.get("source_digest") != digest:
    errors.append(f"source_digest {context.get('source_digest')} is not this tree's {digest}")
if context.get("build_type") != build_type:
    errors.append(f"build_type {context.get('build_type')} is not {build_type}")
aggregates = collections.defaultdict(set)
for row in doc["benchmarks"]:
    run = row["run_name"]
    if not run.endswith("/real_time"):
        errors.append(f"{run}: not timed on the wall clock")
    if row.get("repetitions", 0) < 5:
        errors.append(f"{run}: {row.get('repetitions', 0)} repetitions, want at least 5")
    if row.get("error_occurred"):
        errors.append(f"{run}: {row.get('error_message')}")
    aggregates[run].add(row.get("aggregate_name", ""))
if not aggregates:
    errors.append("no rows")
for run, names in aggregates.items():
    if not {"median", "stddev"} <= names:
        errors.append(f"{run}: lacks a median or stddev aggregate")
for error in errors:
    print(f"error: {path}: {error}", file=sys.stderr)
sys.exit(1 if errors else 0)
EOF
}

for artifact in $(printf '%s\n' "${!benches[@]}" | sort); do
  "$build/bench/${benches[$artifact]}" \
    --benchmark_out="$root/$artifact" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.2 \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_context="$context"
  check_stamp "$root/$artifact"
  echo "wrote $root/$artifact"
done
