"""Compute the golden digest of the modeled outputs, or check it.

    python3 perfbench/golden.py --check            # recompute, compare
    python3 perfbench/golden.py --write            # recompute, overwrite
    python3 perfbench/golden.py --check --hashseeds 0 1 2

The digest pins, per workload, what a performance change must leave
bit-identical: ``batch`` output bags, modeled seconds and ranked costs;
``plan`` eager rankings; ``serve`` the costs a fresh tenant is served.
``--hashseeds`` recomputes in one child process per ``PYTHONHASHSEED``
value and requires every child to agree with the file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from benchlib import GOLDEN_PATH, matches  # noqa: E402

PARTS = ("batch", "plan", "serve")


def compute() -> dict:
    out = {}
    for part in PARTS:
        module = __import__(f"wl_{part}")
        out[part] = module.compute_golden()
    return out


def diff(want: dict, got: dict) -> list[str]:
    problems = []
    for part, entries in got.items():
        for key, value in entries.items():
            if not matches(want.get(part, {}).get(key), value):
                problems.append(f"{part}/{key}: {want.get(part, {}).get(key)} != {value}")
        for key in want.get(part, {}).keys() - entries.keys():
            problems.append(f"{part}/{key}: no longer produced")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true")
    action.add_argument("--check", action="store_true")
    parser.add_argument("--hashseeds", nargs="+", default=None)
    args = parser.parse_args(argv)
    if args.hashseeds:
        status = 0
        for seed in args.hashseeds:
            env = {**os.environ, "PYTHONHASHSEED": seed}
            command = [sys.executable, __file__, "--check"]
            done = subprocess.run(command, env=env)
            print(f"PYTHONHASHSEED={seed}: {'ok' if done.returncode == 0 else 'MISMATCH'}")
            status = status or done.returncode
        return status
    got = compute()
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    problems = diff(json.loads(GOLDEN_PATH.read_text()), got)
    for line in problems:
        print(line)
    print("golden digest matches" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
