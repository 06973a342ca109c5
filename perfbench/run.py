"""The repository's benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload {batch,plan,serve} --seed N \
        --seconds S --trace {0,1}

``batch`` runs optimize-then-execute jobs (the engine dominates), ``plan``
plans newly submitted flows without executing them (the optimizer
dominates), and ``serve`` drives a spawned planning server with an open
loop of plan reads and statistics writes.  Every op's output is checked;
wrong answers count as failed ops.  ``--trace 0`` prints the end-to-end
metrics named in ``BENCHMARK.json``, times at a reference host speed
(``benchlib.HostClock``); ``--trace 1`` runs the same loop with
every other op traced and prints the per-layer metrics.  The last line of
standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("batch", "plan", "serve")
#: Calibration samples taken on each side of set-up.
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    parser.add_argument(
        "--inject",
        choices=("none", "drop-record", "doctor-cost"),
        default="none",
        help="corrupt one checked output to prove the checks fire (tests)",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, tear down, print {'setup_s': ...} (set-up probes)",
    )
    return parser.parse_args(argv)


def probe_setup(args, probes: int) -> list[float]:
    """Set the workload up again in fresh processes; return their times."""
    times = []
    for _ in range(probes):
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--size", args.size,
            "--setup-only",
        ]
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_dir = Path(__file__).resolve().parent
    src = bench_dir.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(bench_dir))

    import benchlib

    # Host-speed samples just before and just after set-up scale setup_s
    # to the reference speed; their own time is left out of it.  The
    # serve workload's work runs in the server process too.
    clock = benchlib.HostClock(each_cpu=args.workload == "serve")
    clock.sample(SETUP_SAMPLES)
    calibrating = clock.spent
    started = time.perf_counter()
    module = __import__(f"wl_{args.workload}")
    import_s = time.perf_counter() - started
    from repro.obs import NOOP_TRACER, Tracer, write_jsonl

    ctx = benchlib.Context(
        seed=args.seed,
        seconds=args.seconds,
        size=args.size,
        inject=args.inject,
        traced=bool(args.trace),
    )
    state = module.setup(ctx)
    setup_end = time.perf_counter()
    clock.sample(SETUP_SAMPLES)
    setup_wall = setup_end - T0 - calibrating
    setup_s = setup_wall * clock.factor(T0, setup_end)
    if args.setup_only:
        module.teardown(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    recorder = benchlib.Recorder(Tracer, NOOP_TRACER, ctx.traced, clock)
    try:
        module.run(state, recorder)
        end_to_end, per_layer, notes, extra_ok = module.measure(state, recorder)
    finally:
        module.teardown(state)
    # Each workload module names its SETUP_PROBES: extra set-ups measured
    # in child processes, so setup_s is a median.  Tiny runs (the
    # benchmark's own tests) skip them.
    probes = module.SETUP_PROBES if args.size == "full" else 0
    setups = [setup_s, *probe_setup(args, probes)]
    end_to_end["setup_s"] = benchlib.median(setups)
    notes.append(
        "setup_s is the median of "
        + ", ".join(f"{s:.3f}" for s in setups)
        + f" s (this run first; its wall clock {setup_wall:.3f} s)"
    )
    notes.append(
        f"host speed: {clock.factor():.3f} of the reference over "
        f"{len(clock.samples)} calibration samples; end-to-end times are "
        "at the reference speed"
    )
    per_layer["process.import_s"] = import_s
    per_layer.update(benchlib.common_layers(recorder))
    trace_path = recorder.write_trace(write_jsonl, args.workload, args.seed)
    if trace_path is not None:
        notes.append(f"trace written to {trace_path}")
    benchlib.emit(
        args.workload, ctx.traced, end_to_end, per_layer, recorder, extra_ok, notes
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
