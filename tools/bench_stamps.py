#!/usr/bin/env python3
"""Reports whether each committed bench artifact was made from this tree.

    python3 tools/bench_stamps.py           # one line per BENCH_*.json
    python3 tools/bench_stamps.py --digest  # this tree's source digest only

bench/run_benches.sh stamps every BENCH_*.json at the repository root with a
digest of src/ and bench/; it takes that digest from source_digest() below.
An artifact whose stamp names another digest was made from other sources, so
its rows, and the numbers EXPERIMENTS.md and DESIGN.md quote from them, may
no longer hold for this tree until run_benches.sh is run again. The report
only reports: it exits 0 whatever it finds.
"""
import argparse
import hashlib
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def source_digest(root=ROOT):
    """sha256 over the relative path and bytes of every file in src/ and bench/."""
    digest = hashlib.sha256()
    for top in (root / "src", root / "bench"):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digest", action="store_true",
                        help="print this tree's source digest and nothing else")
    args = parser.parse_args()
    tree = source_digest()
    if args.digest:
        print(tree)
        return
    print(f"tree source_digest {tree}")
    artifacts = sorted(ROOT.glob("BENCH_*.json"))
    if not artifacts:
        print("no BENCH_*.json at the repository root")
    for artifact in artifacts:
        try:
            context = json.loads(artifact.read_text())["context"]
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"{artifact.name}: unreadable stamp ({error})")
            continue
        stamp = context.get("source_digest") or "(none)"
        verdict = "current" if stamp == tree else "stale"
        print(f"{artifact.name}: {verdict}  source_digest {stamp}  "
              f"git_sha {context.get('git_sha') or '(none)'}  "
              f"date {context.get('date') or '(none)'}")


if __name__ == "__main__":
    main()
