"""Acceptance suite.

One test per acceptance criterion, each at its full stated scale, each
printing a single PASS line once its assertions hold (run pytest with -s
to see them).  Exact comparisons are integer equality; numeric tolerances
are fixed at 1e-8.
"""

import random
from math import comb

from seidelspec import (
    IntPoly,
    Partition,
    charpoly_coefficients,
    charpoly_grouped_coefficients,
    charpoly_oracle,
    charpoly_product,
    complete_multipartite,
    cospectral_classes,
    elementary_symmetric,
    exact_root_multiplicity,
    exhaustive_switching_survey,
    forced_rule,
    Graph,
    partitions_of,
    positive_root_count,
    quotient_matrix,
    roots_below,
    seidel_matrix,
    spectrum_report,
    switch,
    verify_shared_part_property,
)
from seidelspec.verify import RECOVER_CAP, determination_suite

TOL = 1e-8


def test_acceptance_1_closed_form_agreement():
    checked = 0
    for n in range(1, 13):
        for p in partitions_of(n):
            product = charpoly_product(p)
            coeff = charpoly_coefficients(p)
            grouped = charpoly_grouped_coefficients(p)
            oracle = charpoly_oracle(seidel_matrix(complete_multipartite(p)))
            assert product.expanded == coeff.expanded == grouped.expanded == oracle, p
            assert charpoly_oracle(quotient_matrix(p)) == product.residual, p
            checked += 1
    print(f"\nACCEPTANCE 1 PASS closed-form agreement, {checked} partitions n<=12")


def _k3_residual(parts):
    n = sum(parts)
    s = elementary_symmetric(parts)
    return IntPoly([1 - n + 4 * s[3], 3 - 2 * n, 3 - n, 1])


def _k4_residual(parts):
    n = sum(parts)
    s = elementary_symmetric(parts)
    return IntPoly(
        [1 - n + 4 * s[3] - 16 * s[4], 4 - 3 * n + 4 * s[3], 6 - 3 * n, 4 - n, 1]
    )


def _k5_residual(parts):
    n = sum(parts)
    s = elementary_symmetric(parts)
    return IntPoly(
        [
            1 - n + 4 * s[3] - 16 * s[4] + 48 * s[5],
            5 - 4 * n + 8 * s[3] - 16 * s[4],
            10 - 6 * n + 4 * s[3],
            10 - 4 * n,
            5 - n,
            1,
        ]
    )


def test_acceptance_2_small_k_residual_constants():
    rng = random.Random(20250810)
    builders = {3: _k3_residual, 4: _k4_residual, 5: _k5_residual}
    for k, builder in builders.items():
        for _ in range(25):
            parts = sorted((rng.randint(1, 9) for _ in range(k)), reverse=True)
            p = Partition(parts)
            assert charpoly_coefficients(p).residual == builder(parts), p
    print("\nACCEPTANCE 2 PASS printed residual constants for k=3,4,5, 25 random partitions each")


def test_acceptance_3_spectral_structure():
    checked = 0
    for n in range(1, 13):
        for p in partitions_of(n):
            if not 2 < p.k < p.n:
                continue
            full = charpoly_product(p).expanded
            assert exact_root_multiplicity(full, -1) == p.n - p.k, p
            assert positive_root_count(full, assume_real_rooted=True) == p.k - 1, p
            assert roots_below(full, -1, assume_real_rooted=True) == 1, p
            report = spectrum_report(p)
            assert all(within for (_, _, _, within) in report.interval_checks), p
            checked += 1
    print(f"\nACCEPTANCE 3 PASS spectral structure, {checked} partitions with 2<k<n, n<=12")


def test_acceptance_4_least_eigenvalue_bound():
    for n in range(1, 13):
        for p in partitions_of(n):
            report = spectrum_report(p)
            assert report.least_eigenvalue <= report.bound.value + TOL, p
    tight_checked = 0
    for k in range(2, 13):
        for m in range(1, 12 // k + 1):
            p = Partition([m] * k)
            report = spectrum_report(p)
            assert abs(report.bound.value - (-1.0 - (k - 2) * m)) <= 1e-9, p
            assert abs(report.least_eigenvalue - report.bound.value) <= TOL, p
            tight_checked += 1
    print(f"\nACCEPTANCE 4 PASS bound holds for all partitions n<=12, tight on {tight_checked} equal-part cases")


def test_acceptance_5_switching_invariance():
    rng = random.Random(987654321)
    checked = 0
    for n in range(4, 9):
        bits = comb(n, 2)
        for _ in range(500):
            g = Graph.from_mask(n, rng.getrandbits(bits))
            subset = [v for v in range(n) if rng.getrandbits(1)]
            h = switch(g, subset)
            assert charpoly_oracle(seidel_matrix(g)) == charpoly_oracle(
                seidel_matrix(h)
            ), (n, g.mask, subset)
            checked += 1
    print(f"\nACCEPTANCE 5 PASS switching invariance on {checked} random (G,U) pairs, n=4..8")


def test_acceptance_6_partition_recovery_roundtrip():
    # one check per order and one per partition up to RECOVER_CAP, whose
    # residual must recover exactly itself and its scanned cospectral mates
    result = determination_suite(RECOVER_CAP)
    assert result.passed, result.failures
    assert result.checks == RECOVER_CAP + 2713
    print(f"\nACCEPTANCE 6 PASS recovery round trip, 2713 partitions n<={RECOVER_CAP}")


def test_acceptance_7_cospectral_partitions_share_no_part_size():
    for n in range(1, 21):
        report = verify_shared_part_property(n)
        assert report.shared_part_violations == (), (n, report.shared_part_violations)
    print("\nACCEPTANCE 7 PASS no cospectral pair (k>=3) shares a part size, n<=20")


def test_acceptance_8_forced_patterns_are_unique_in_family():
    checked = 0
    for n in range(1, 21):
        for cls in cospectral_classes(n):
            for p in cls.partitions:
                if forced_rule(p) in ("repeated_size", "trailing_ones", "trailing_2_2_1"):
                    same_k = [q for q in cls.partitions if q.k == p.k]
                    assert same_k == [p], (p, cls.partitions)
                    checked += 1
    print(f"\nACCEPTANCE 8 PASS {checked} forced-pattern partitions are unique in family, n<=20")


def test_acceptance_9_exhaustive_survey():
    for n in range(1, 8):
        report = exhaustive_switching_survey(n)
        # two-graphs of orders 1..n-1, OEIS A002854
        assert report.class_counts == (1, 1, 2, 3, 7, 16)[: n - 1]
        assert report.equivalence_violations == (), (n, report.equivalence_violations)
        assert all(m.verified for m in report.matches)
    print("\nACCEPTANCE 9 PASS exhaustive survey n<=7: cospectral implies switching equivalent")


# Criterion 10: there are no reported large-scale numbers to reproduce;
# the property suites above are the whole acceptance surface.
