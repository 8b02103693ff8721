"""Bulk verification suites behind the ``verify`` CLI subcommand.

Each suite sweeps a family of inputs and returns a SuiteResult; a failure
message names the offending input.  All randomness is seeded, so runs are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .determination import (
    COSPECTRAL_CAP,
    exhaustive_switching_survey,
    partitions_of,
    recover_partitions,
    verify_shared_part_property,
)
from .errors import CapExceededError, InvalidPartitionError, SeidelSpecError
from .exactalg import charpoly_oracle
from .graphs import (
    ENUMERATION_CAP,
    Graph,
    complete_multipartite,
    seidel_charpolys,
    seidel_matrix,
    switch,
)
from .multipartite import (
    CLOSED_FORMS,
    charpoly_coefficients,
    quotient_matrix,
)
from .spectra import spectrum_report

DEFAULT_SEED = 12345
SWITCHING_PAIRS = 500
SWEEP_CAP = 24  # closedform and bounds sweep every partition of each order
RECOVER_CAP = 20  # determination checks recovery against the scan up to this order


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: tuple[str, ...]


def _check_cap(name: str, max_n: int) -> None:
    cap = SUITES[name][1]
    if cap is not None and max_n > cap:
        raise CapExceededError(f"the {name} suite is capped at order {cap}, got {max_n}")


def closedform_suite(max_n: int = 12) -> SuiteResult:
    """Every closed form against the determinant recurrence, exactly."""
    _check_cap("closedform", max_n)
    checks = 0
    failures: list[str] = []
    for n in range(1, max_n + 1):
        for p in partitions_of(n):
            forms = {name: form(p) for name, form in CLOSED_FORMS.items()}
            oracle = charpoly_oracle(seidel_matrix(complete_multipartite(p)))
            checks += 1
            if any(f.expanded != oracle for f in forms.values()):
                failures.append(f"{p}: closed forms disagree")
                continue
            if charpoly_oracle(quotient_matrix(p)) != forms["product"].residual:
                failures.append(f"{p}: quotient polynomial differs from residual")
    return SuiteResult("closedform", not failures, checks, tuple(failures))


def bounds_suite(max_n: int = 12) -> SuiteResult:
    """Spectrum reports for every partition; bound tight for equal parts."""
    _check_cap("bounds", max_n)
    checks = 0
    failures: list[str] = []
    for n in range(1, max_n + 1):
        for p in partitions_of(n):
            checks += 1
            try:
                report = spectrum_report(p)
            except SeidelSpecError as exc:
                failures.append(f"{p}: {exc}")
                continue
            sizes = {s for s, _ in p.grouped()}
            if p.k >= 2 and len(sizes) == 1:
                m = p.parts[0]
                expected = -1.0 - (p.k - 2) * m
                if not report.bound_tight:
                    failures.append(f"{p}: equal-part bound is not tight")
                if abs(report.bound.value - expected) > 1e-9:
                    failures.append(f"{p}: equal-part bound differs from -1-(k-2)m")
    return SuiteResult("bounds", not failures, checks, tuple(failures))


def switching_suite(max_n: int = 8, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Random switching invariance plus the exhaustive two-graph survey.

    The ``SWITCHING_PAIRS`` random pairs of one order are drawn first, in
    a fixed order from the seeded generator; the polynomials of all graphs
    g and of all switched graphs h then come from two ``seidel_charpolys``
    batches, compared pair by pair.
    """
    rng = random.Random(seed)
    checks = 0
    failures: list[str] = []
    for n in range(4, min(max_n, 8) + 1):
        bits = comb(n, 2)
        drawn = []
        for _ in range(SWITCHING_PAIRS):
            g = Graph.from_mask(n, rng.getrandbits(bits))
            subset = [v for v in range(n) if rng.getrandbits(1)]
            drawn.append((g, subset, switch(g, subset)))
        before = seidel_charpolys([g for g, _, _ in drawn])
        after = seidel_charpolys([h for _, _, h in drawn])
        for (g, subset, _), p, q in zip(drawn, before, after):
            checks += 1
            if p != q:
                failures.append(f"switch changed the spectrum: n={n} mask={g.mask} U={subset}")
    for n in range(1, min(max_n, ENUMERATION_CAP) + 1):
        checks += 1
        report = exhaustive_switching_survey(n)
        for partition, mask in report.equivalence_violations:
            failures.append(f"order {n}: graph {mask} cospectral with {partition} but not equivalent")
    return SuiteResult("switching", not failures, checks, tuple(failures))


def determination_suite(max_n: int = 20) -> SuiteResult:
    """Shared-part scan and forced-pattern uniqueness at each order (a
    forced partition with mates makes the scan raise, recorded as that
    order's failure); up to ``RECOVER_CAP``, each partition's residual
    must recover exactly itself and the mates of its scanned verdict."""
    _check_cap("determination", max_n)
    checks = 0
    failures: list[str] = []
    for n in range(1, max_n + 1):
        checks += 1
        try:
            report = verify_shared_part_property(n)
        except SeidelSpecError as exc:
            failures.append(f"order {n}: {exc}")
            continue
        for a, b, size in report.shared_part_violations:
            failures.append(f"order {n}: {a} and {b} cospectral sharing size {size}")
        for v in report.verdicts if n <= RECOVER_CAP else ():
            checks += 1
            p, scanned = v.partition, sorted((v.partition, *v.mates))
            try:
                recovered = recover_partitions(charpoly_coefficients(p).residual)
            except SeidelSpecError as exc:
                failures.append(f"{p}: recovery failed: {exc}")
                continue
            if recovered != scanned:
                got, want = (" ".join(map(str, ps)) for ps in (recovered, scanned))
                failures.append(f"{p}: recovery gives {got or 'none'}, the scan {want}")
    return SuiteResult("determination", not failures, checks, tuple(failures))


# each suite with the largest max_n it accepts; switching clamps its own
# orders.  Each entry looks its suite up when called, so a module attribute
# rebound by a tracer or a test is the one that runs.
SUITES = {
    "closedform": (lambda **options: closedform_suite(**options), SWEEP_CAP),
    "bounds": (lambda **options: bounds_suite(**options), SWEEP_CAP),
    "switching": (lambda **options: switching_suite(**options), None),
    "determination": (lambda **options: determination_suite(**options), COSPECTRAL_CAP),
}


def run_suites(
    names: list[str],
    max_n: int | None = None,
    seed: int = DEFAULT_SEED,
) -> list[SuiteResult]:
    """Run the named suites in order; a missing or zero max_n keeps each
    suite's own default.  Every name and cap is checked before any suite
    starts."""
    if max_n is not None and max_n < 0:
        raise InvalidPartitionError(f"suite orders must be >= 0, got {max_n}")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        if max_n:
            _check_cap(name, max_n)
    results = []
    for name in names:
        suite = SUITES[name][0]
        options: dict[str, int] = {"max_n": max_n} if max_n else {}
        if name == "switching":  # the only randomized suite
            options["seed"] = seed
        results.append(suite(**options))
    return results
