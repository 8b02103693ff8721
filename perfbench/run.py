"""End-to-end benchmark of the ``seidelspec`` CLI, with a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

One client calls ``seidelspec.cli.main(argv)`` in this process, one call
after another, repeating the workload's call sequence ("a pass") until
``--seconds`` have passed.  Every output is checked against the exact
references recorded at the seed commit.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics; with ``--trace 1`` the
first half of the time runs untraced and the rest traced, and the last
line holds the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from refcheck import load_references, matches
from spans import Tracer, summarize
from speed import SpeedMonitor, busy_jiffies
from workloads import WORKLOADS, Workload

SETUP_ROUND = 4  # setup samples before the first pass and after each pass
SETUP_SNIPPET = (
    "import os, time; os.sched_setaffinity(0, {{{cpu}}}); t0 = time.perf_counter(); "
    "import seidelspec.cli as c; c.build_parser(); print(time.perf_counter() - t0)"
)
LAYERS = ("cli", "verify", "determination", "multipartite", "graphs", "spectra", "exactalg")

END_TO_END = {
    "throughput": "items/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "exactalg.charpoly_oracle.calls": "count",
    "exactalg.charpoly_oracle.self_s": "s",
    "exactalg.charpoly_oracle.madds": "madd",
    "exactalg.charpoly_oracle.madds_per_s": "madd/s",
    "graphs.seidel_matrix.calls": "count",
    "graphs.seidel_matrix.self_s": "s",
    "graphs.switching_equivalent.calls": "count",
    "graphs.switching_equivalent.self_s": "s",
    "graphs.switching_equivalent.found_ratio": "ratio",
    "graphs.graph_isomorphic.calls": "count",
    "graphs.graph_isomorphic.self_s": "s",
    "multipartite.charpoly_product.calls": "count",
    "multipartite.charpoly_product.self_s": "s",
    "multipartite.charpoly_product.calls_per_item": "calls/item",
    "multipartite.charpoly_coefficients.self_s": "s",
    "multipartite.charpoly_grouped_coefficients.self_s": "s",
    "spectra.spectrum_report.self_s": "s",
    "spectra.symmetric_eigenvalues.self_s": "s",
    "spectra.is_real_rooted.self_s": "s",
    "spectra.roots_below.self_s": "s",
    "spectra.exact_root_multiplicity.calls": "count",
    "spectra.exact_root_multiplicity.self_s": "s",
    "determination.exhaustive_switching_survey.self_s": "s",
    "determination.cospectral_classes.self_s": "s",
    "determination.verify_shared_part_property.self_s": "s",
    "verify.switching_suite.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _oracle_madds(args, kwargs, result) -> int:
    # Faddeev-LeVerrier does n - 1 products of n x n matrices: (n-1) n^3
    # multiply-adds, computed from the order, not counted
    m = args[0] if args else kwargs["matrix"]
    n = m.n if hasattr(m, "n") else len(m)
    return max(n - 1, 0) * n**3


def _found(args, kwargs, result) -> int:
    return int(result is not None)


SPAN_EXTRAS = {
    "exactalg.charpoly_oracle": _oracle_madds,
    "graphs.switching_equivalent": _found,
}


# -- environment ---------------------------------------------------------------


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "seidelspec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_samples(src: Path, cpus) -> list[tuple[float, float, int, float]]:
    """``(start, end, cpu, seconds)`` for one fresh interpreter per CPU in
    ``cpus``, pinned to it, that imports the CLI and builds its parser,
    timed inside the child."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for cpu in cpus:
        cmd = [sys.executable, "-c", SETUP_SNIPPET.format(cpu=cpu)]
        t0 = time.monotonic()
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=60)
        samples.append((t0, time.monotonic(), cpu, float(done.stdout)))
    return samples


# -- passes --------------------------------------------------------------------


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_pass(cli, calls, references) -> dict:
    """One pass over the workload's calls; returns wall, cpu and failures."""
    outputs = []
    busy0 = busy_jiffies()
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(call.argv))
        except Exception:  # a crash is a failed call, not a failed benchmark
            traceback.print_exc()
            code = None
        outputs.append((call, code, out.getvalue(), err.getvalue()))
    t1 = time.monotonic()
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    busy = {c: n - busy0.get(c, 0) for c, n in busy_jiffies().items()}
    failed = 0
    for call, code, stdout, stderr in outputs:
        if code != 0 or not matches(references, call.ref_key, call.command, stdout):
            failed += 1
            print(f"FAILED {' '.join(call.argv)}: exit {code} {stderr.strip()[:200]}",
                  file=sys.stderr)
    return {
        "start": t0, "end": t1, "wall": t1 - t0, "cpu": cpu, "busy": busy,
        "attempted": len(calls), "failed": failed,
    }


def run_passes(cli, calls, references, until, started, min_passes=1, after_pass=None):
    """Passes until the next one would likely end more than ``until`` seconds
    after ``started``; at least ``min_passes``."""
    passes: list[dict] = []
    while True:
        passes.append(run_pass(cli, calls, references))
        if after_pass is not None:
            after_pass()
        elapsed = time.monotonic() - started
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > until:
            return passes


# -- metrics -------------------------------------------------------------------


def end_to_end(work: Workload, passes: list[dict], setup: list, speed: SpeedMonitor) -> dict:
    """The end-to-end metrics, times scaled to the reference CPU speed."""
    slow = [speed.slowdown(p["start"], p["end"], p["busy"]) for p in passes]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "throughput": statistics.median(
            work.items_per_pass * f / p["wall"] for p, f in zip(passes, slow)
        ),
        "cpu_s": statistics.median(p["cpu"] / f for p, f in zip(passes, slow)),
        "setup_s": statistics.median(
            v / speed.slowdown(t0, t1, {cpu: 1}) for t0, t1, cpu, v in setup
        ),
        "peak_rss_mb": max(self_rss, child_rss) / 1024,  # ru_maxrss is in KiB
    }
    print("raw, not scaled: throughput {:.6g} items/s, cpu_s {:.6g} s, setup_s {:.6g} s".format(
        statistics.median(work.items_per_pass / p["wall"] for p in passes),
        statistics.median(p["cpu"] for p in passes),
        statistics.median(v for *_, v in setup),
    ))
    print("slowdown per pass: " + " ".join(f"{f:.3f}" for f in slow))
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(work: Workload, summaries: list[dict], overhead: float) -> dict:
    def med(name: str, key: str) -> float:
        return statistics.median(s.get(name, {}).get(key, 0) for s in summaries)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values: dict[str, float] = {"trace.overhead_ratio": overhead}
    for metric in PER_LAYER:
        name, key = metric.rsplit(".", 1)
        if key in ("calls", "self_s"):
            values[metric] = med(name, key)
    oracle = "exactalg.charpoly_oracle"
    values[f"{oracle}.madds"] = med(oracle, "extra")
    values[f"{oracle}.madds_per_s"] = statistics.median(
        ratio(s.get(oracle, {}).get("extra", 0), s.get(oracle, {}).get("self_s", 0))
        for s in summaries
    )
    sweq = "graphs.switching_equivalent"
    values[f"{sweq}.found_ratio"] = ratio(med(sweq, "extra"), med(sweq, "calls"))
    product = "multipartite.charpoly_product"
    values[f"{product}.calls_per_item"] = med(product, "calls") / work.items_per_pass
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def check_counts(work: Workload, calls, summaries: list[dict], at_seed: bool):
    """Span counts against what they must be: ``(errors, notes)``.

    ``cli.main`` must be traced once per call made, in every traced pass.
    The workload's named counts must equal the seed commit's when the
    sources are the seed commit's; otherwise a difference is only a note,
    since an optimisation may legitimately change them.
    """
    errors, notes = [], []
    for i, s in enumerate(summaries):
        got = s.get("cli.main", {}).get("calls", 0)
        if got != len(calls):
            errors.append(f"pass {i}: cli.main traced {got} times, {len(calls)} calls made")
        for name, want in work.seed_counts.items():
            got = s.get(name, {}).get("calls", 0)
            if got != want:
                msg = f"pass {i}: {name} {got} calls, {want} at the seed commit"
                (errors if at_seed else notes).append(msg)
    return errors, notes


# -- main ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "seidelspec" / "cli.py").is_file():
        print(f"error: no seidelspec sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import seidelspec.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported seidelspec from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    work = WORKLOADS[args.workload]
    calls = work.calls(args.seed)
    recorded = load_references()
    references = recorded["digests"]
    digest = src_digest(src)
    context = {
        "workload": work.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "src_sha256": digest,
        "at_seed_commit_source": digest == recorded["seed_src_sha256"],
        "calls_per_pass": [" ".join(c.argv) for c in calls],
        "jobs": "never passed: the CLI default (os.cpu_count()) is measured",
    }
    print(json.dumps({"context": context}))

    started = time.monotonic()
    errors: list[str] = []
    with SpeedMonitor() as speed:
        if not args.trace:
            # setup samples are spread over the run and over the CPUs, so
            # one slow spell of the shared machine moves few of them; the
            # import above has already written the bytecode cache
            cpus = itertools.cycle(speed.cpus)
            setup: list = []

            def setup_round():
                setup.extend(setup_samples(src, [next(cpus) for _ in range(SETUP_ROUND)]))

            setup_round()
            passes = run_passes(
                cli, calls, references, args.seconds, started, min_passes=2,
                after_pass=setup_round,
            )
        else:
            plain = run_passes(cli, calls, references, args.seconds / 2, started)
            spool = Path(tempfile.mkdtemp(prefix=".perfbench-spool-", dir=root))
            try:
                tracer = Tracer(spool, SPAN_EXTRAS)
                tracer.install([sys.modules[f"seidelspec.{m}"] for m in LAYERS], "seidelspec")
                summaries: list[dict] = []
                traced = run_passes(
                    cli, calls, references, args.seconds, started,
                    after_pass=lambda: summaries.append(summarize(tracer.collect())),
                )
            finally:
                shutil.rmtree(spool, ignore_errors=True)
            passes = plain + traced

    if not args.trace:
        metrics = end_to_end(work, passes, setup, speed)
    else:
        def scaled_wall(group):
            return statistics.median(
                p["wall"] / speed.slowdown(p["start"], p["end"], p["busy"]) for p in group
            )

        metrics = per_layer(work, summaries, scaled_wall(traced) / scaled_wall(plain))
        errors, notes = check_counts(work, calls, summaries, context["at_seed_commit_source"])
        for line in errors + notes:
            print(f"count check: {line}")
        print(f"count check: {'FAILED' if errors else 'ok'} ({len(summaries)} traced passes)")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"passes: {len(passes)}  calls attempted: {attempted}  failed: {failed}")
    print("pass wall s: " + " ".join(f"{p['wall']:.3f}" for p in passes))
    print("pass cpu s: " + " ".join(f"{p['cpu']:.3f}" for p in passes))
    print(f"failed_ratio: {failed / attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
