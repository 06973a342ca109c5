"""Tests of the benchmark itself, on tiny workloads.

Each runs ``perfbench/run.py --size tiny`` (or a workload module in
process) and checks the contract: every metric of ``BENCHMARK.json`` is
printed with its unit, a wrong answer lands in ``failed``, and the serve
workload leaves no server process, socket or store behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int = 0, inject: str = "none", seed: int = 3):
    command = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
        "--inject", inject,
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=170, cwd=ROOT
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def printed(lines: list[str]) -> dict[str, tuple[float, str]]:
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_prints_every_metric(workload):
    result, lines = run_bench(workload, trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name]
    table = printed(lines)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert table[metric["name"]][1] == metric["unit"], metric["name"]
    assert table["failed_ratio"][0] == 0.0
    assert result["metrics"]["latency_tail_s"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    result, _ = run_bench("plan", trace=0)
    assert result["correct"] is True
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, inject",
    [("batch", "drop-record"), ("plan", "doctor-cost"), ("serve", "doctor-cost")],
)
def test_injected_wrong_answer_counts_as_failed(workload, inject):
    result, lines = run_bench(workload, inject=inject)
    assert result["correct"] is False
    assert result["failed"] == 1
    # failed_ratio is printed to six significant digits.
    assert printed(lines)["failed_ratio"][0] == pytest.approx(
        1 / result["attempted"], rel=1e-5
    )


def test_host_clock_scales_by_the_samples_near_an_op():
    sys.path.insert(0, str(BENCH))
    try:
        import benchlib

        ref = benchlib.KERNEL_REF_S
        clock = benchlib.HostClock()
        clock.samples = [(0.0, ref), (10.0, 2 * ref), (10.5, 2 * ref)]
        # Near t=10 the kernel ran at half speed: an op took half as long
        # at the reference speed.
        assert clock.scaled(1.0, 10.0, 10.2) == pytest.approx(0.5)
        assert clock.scaled(1.0, 0.0, 0.1) == pytest.approx(1.0)
        # With no sample near, and with no interval, all samples count.
        assert clock.scaled(1.0, 5.0, 5.1) == pytest.approx(0.5)
        assert clock.factor() == pytest.approx(0.5)
        for each_cpu in (False, True):
            live = benchlib.HostClock(each_cpu=each_cpu)
            live.sample(2)
            assert len(live.samples) == 2 and live.spent > 0
            assert all(took > 0 for _, took in live.samples)
    finally:
        sys.path.remove(str(BENCH))


def _serve_processes(marker: str) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if b"serve" in cmdline and marker.encode() in cmdline:
            found.append(int(entry.name))
    return found


def _sockets() -> int:
    count = 0
    for fd in Path("/proc/self/fd").iterdir():
        try:
            count += os.readlink(fd).startswith("socket:")
        except OSError:
            pass
    return count


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="needs /proc")
def test_serve_leaves_no_server_socket_or_store():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import benchlib
        import wl_serve
        from repro.obs import NOOP_TRACER, Tracer

        before = _sockets()
        ctx = benchlib.Context(
            seed=5, seconds=1.0, size="tiny", inject="none", traced=False
        )
        state = wl_serve.setup(ctx)
        server = state.server.process
        recorder = benchlib.Recorder(Tracer, NOOP_TRACER, False)
        try:
            wl_serve.run(state, recorder)
        finally:
            wl_serve.teardown(state)
        assert recorder.failed == 0 and recorder.attempted > 0
        assert server.poll() is not None
        assert _sockets() == before
        assert not state.work.exists()
        assert _serve_processes(str(state.work)) == []
    finally:
        del sys.path[:2]


def test_no_result_without_sources(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("target", ["do_read", "run_op"])
def test_serve_counts_unexpected_errors_and_lost_ops_as_failed(monkeypatch, target):
    """An unexpected exception fails its op (``do_read``); one that stops a
    load thread (``run_op``) fails every scheduled op it left undone."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import benchlib
        import wl_serve
        from repro.obs import NOOP_TRACER, Tracer

        real = getattr(wl_serve, target)
        calls = []

        def broken(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("injected")
            return real(*args)

        monkeypatch.setattr(wl_serve, target, broken)
        ctx = benchlib.Context(
            seed=5, seconds=1.0, size="tiny", inject="none", traced=False
        )
        state = wl_serve.setup(ctx)
        recorder = benchlib.Recorder(Tracer, NOOP_TRACER, False)
        try:
            wl_serve.run(state, recorder)
        finally:
            wl_serve.teardown(state)
        assert recorder.failed >= 1
        assert any("RuntimeError" in e for e in recorder.errors)
        steps = len(state.steps)
        scheduled = [op for op in recorder.ops if op.attrs.get("step", -1) < steps]
        assert len(scheduled) == len(state.ops)
    finally:
        del sys.path[:2]
