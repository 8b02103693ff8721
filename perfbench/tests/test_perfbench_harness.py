"""Tests of the benchmark harness itself (not of seidelspec).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import time
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_union_of_overlapping_children_from_two_processes():
    parent_pid, worker_a, worker_b = 100, 200, 300
    parent = (parent_pid << 32) + 1
    recorded = [
        (parent, 0, "determination.survey", 0, 100, 0),
        # two workers, overlapping in [40, 60)
        ((worker_a << 32) + 1, parent, "exactalg.oracle", 10, 60, 0),
        ((worker_b << 32) + 1, parent, "exactalg.oracle", 40, 90, 0),
        # a grandchild inside worker a's span does not touch the parent
        ((worker_a << 32) + 2, (worker_a << 32) + 1, "graphs.seidel", 20, 30, 0),
    ]
    summary = spans.summarize(recorded)
    assert summary["determination.survey"]["calls"] == 1
    assert summary["determination.survey"]["self_s"] == pytest.approx(20e-9)  # 100 - |[10,90)|
    assert summary["exactalg.oracle"]["calls"] == 2
    assert summary["exactalg.oracle"]["self_s"] == pytest.approx((50 - 10 + 50) * 1e-9)
    assert summary["graphs.seidel"]["self_s"] == pytest.approx(10e-9)


def test_self_time_clips_children_to_the_parent_interval():
    recorded = [(1, 0, "a", 10, 20, 0), (2, 1, "b", 5, 15, 0), (3, 1, "b", 18, 40, 0)]
    assert spans.summarize(recorded)["a"]["self_s"] == pytest.approx(3e-9)


# -- tracing across forked pool workers -----------------------------------------

fake = types.ModuleType("perfbench_fake")


def _leaf(x):
    return x + 1


def _fanout(xs):
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        return list(pool.map(_work, xs))


def _work(x):
    return fake.leaf(x)


fake.leaf = _leaf
fake.fanout = _fanout
_leaf.__module__ = _fanout.__module__ = "perfbench_fake"


def test_tracer_collects_spans_from_forked_workers(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "perfbench_fake", fake)
    monkeypatch.setattr(fake, "leaf", _leaf)
    monkeypatch.setattr(fake, "fanout", _fanout)
    tracer = spans.Tracer(tmp_path, {"perfbench_fake.leaf": lambda a, k, r: r})
    assert tracer.install([fake], "perfbench_fake") == [
        "perfbench_fake.fanout",
        "perfbench_fake.leaf",
    ]
    assert fake.leaf is not _leaf
    assert fake.fanout(list(range(20))) == list(range(1, 21))
    recorded = tracer.collect()
    by_name = {}
    for s in recorded:
        by_name.setdefault(s[spans.NAME], []).append(s)
    (top,) = by_name["perfbench_fake.fanout"]
    leaves = by_name["perfbench_fake.leaf"]
    assert len(leaves) == 20
    assert {s[spans.PARENT] for s in leaves} == {top[spans.ID]}
    assert all(top[spans.START] <= s[spans.START] <= s[spans.END] <= top[spans.END] for s in leaves)
    assert len({s[spans.ID] for s in recorded}) == len(recorded)
    summary = spans.summarize(recorded)
    assert summary["perfbench_fake.leaf"]["extra"] == sum(range(1, 21))
    assert not list(tmp_path.iterdir())  # collect removed the worker files


# -- speed scaling ---------------------------------------------------------------


def _monitor(samples):
    monitor = speed.SpeedMonitor()
    monitor.samples = samples
    return monitor


def test_slowdown_weights_cpus_by_how_busy_they_were():
    ref = speed.REFERENCE_KERNEL_S
    monitor = _monitor({
        0: [(t / 10, 2 * ref) for t in range(100)],  # cpu 0 twice as slow
        1: [(t / 10, ref) for t in range(100)],
    })
    assert monitor.slowdown(1.0, 5.0, {0: 400, 1: 0}) == pytest.approx(2.0)
    assert monitor.slowdown(1.0, 5.0, {0: 0, 1: 400}) == pytest.approx(1.0)
    assert monitor.slowdown(1.0, 5.0, {0: 200, 1: 200}) == pytest.approx(1.5)
    # a short interval of a process pinned to cpu 0 uses the samples near it
    assert monitor.slowdown(1.0, 1.05, {0: 1}) == pytest.approx(2.0)


def test_slowdown_uses_only_samples_near_the_interval():
    ref = speed.REFERENCE_KERNEL_S
    monitor = _monitor({0: [(t / 10, (3 if t < 50 else 1) * ref) for t in range(100)]})
    assert monitor.slowdown(6.0, 9.0, {0: 300}) == pytest.approx(1.0)
    assert monitor.slowdown(1.0, 4.0, {0: 300}) == pytest.approx(3.0)
    assert _monitor({0: []}).slowdown(1.0, 2.0, {0: 1}) == 1.0


def test_speed_monitor_stops_its_samplers():
    with speed.SpeedMonitor() as monitor:
        time.sleep(0.3)
    assert all(p.poll() is not None for p in monitor._procs)
    assert all(len(s) >= 2 for s in monitor.samples.values())
    assert set(monitor.samples) == set(monitor.cpus)


# -- workloads -----------------------------------------------------------------


def test_large_generator_is_deterministic_per_seed():
    assert workloads.large_calls(7) == workloads.large_calls(7)
    assert workloads.large_partitions(7) != workloads.large_partitions(8)
    parts = workloads.large_partitions(7)
    assert len(workloads.large_calls(7)) == 14
    for n, p in zip(workloads.LARGE_ORDERS, parts):
        sizes = [int(s) for s in p.split(",")]
        assert sum(sizes) == n and 3 <= len(sizes) <= 8
        assert sizes == sorted(sizes, reverse=True) and min(sizes) >= 1


def test_item_counts():
    assert workloads.SURVEY_CLASSES == 33868
    assert workloads.partition_count(30) == 5604


def test_every_call_any_seed_can_make_has_a_reference():
    digests = refcheck.load_references()["digests"]
    catalog = workloads.large_catalog()
    keys = {c.ref_key for c in workloads.partition_calls(p for ps in catalog.values() for p in ps)}
    keys |= {c.ref_key for c in workloads.survey_calls(99) + workloads.search_calls(99)}
    assert keys <= set(digests)


def test_workload_calls_never_pass_jobs():
    for work in workloads.WORKLOADS.values():
        for call in work.calls(3):
            assert "--jobs" not in call.argv


# -- reference check -------------------------------------------------------------


def _charpoly_output():
    sys.path.insert(0, str(ROOT / "src"))
    from seidelspec import cli

    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["charpoly", "9,4,3", "--form", "all", "--json"]) == 0
    return out.getvalue()


def test_reference_check_accepts_the_seed_output_and_ignores_added_keys():
    digests = refcheck.load_references()["digests"]
    text = _charpoly_output()
    assert refcheck.matches(digests, "charpoly 9,4,3", "charpoly", text)
    payload = json.loads(text)
    payload["stats"] = {"oracle_calls": 1}
    payload["forms"][0]["factored"] = "reformatted"
    assert refcheck.matches(digests, "charpoly 9,4,3", "charpoly", json.dumps(payload))


def test_reference_check_rejects_a_tampered_output():
    digests = refcheck.load_references()["digests"]
    payload = json.loads(_charpoly_output())
    coeffs = payload["forms"][3]["coefficients"]
    coeffs[0] = str(int(coeffs[0]) + 1)
    assert not refcheck.matches(digests, "charpoly 9,4,3", "charpoly", json.dumps(payload))
    del payload["agree"]
    assert not refcheck.matches(digests, "charpoly 9,4,3", "charpoly", json.dumps(payload))
    assert not refcheck.matches(digests, "charpoly 9,4,3", "charpoly", "not json")
    assert not refcheck.matches(digests, "charpoly 1,1,1", "charpoly", _charpoly_output())


# -- contract --------------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_runner_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
