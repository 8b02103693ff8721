"""Property tests of the cospectral search's and recovery's exact kernels.

Each kernel is checked against the plainer code it replaced, kept here as
the reference: root multiplicity by evaluating p(r) and then dividing
exactly by x - r, the shift x = c - t and the Taylor coefficients by
Horner composition of IntPoly products, the (x+1)^e factor as a repeated
IntPoly power, the coefficient formula as a per-term loop, the packed
residual as the product form and the row-by-row weight table, the packed
walk's lanes as elementary symmetric functions, and the search's class
polynomials and verdict evidence, both built from the degree-k residual,
against the expanded polynomial of the coefficient formula.
"""

from math import comb
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seidelspec import (
    IntPoly,
    Partition,
    charpoly_coefficients,
    charpoly_grouped_coefficients,
    descartes_sign_changes,
    exact_root_multiplicity,
    roots_below,
)
from seidelspec.determination import (
    COSPECTRAL_CAP,
    _build_verdict,
    _partition_walk,
    _walk_words,
    cospectral_classes,
    forced_rule,
    partitions_of,
)
from seidelspec.exactalg import elementary_symmetric
from seidelspec.multipartite import (
    _product_residual,
    _sigma_residual,
    _sigma_residuals,
    _times_ones_powers,
    residual_weights,
)

small_ints = st.integers(-6, 6)
cofactors = st.lists(st.integers(-40, 40), min_size=1, max_size=8).filter(
    lambda cs: any(cs)
)
wide = st.integers(-(2**300), 2**300)
ones_exponents = st.integers(0, 70)


def reference_multiplicity(p: IntPoly, r: int) -> int:
    lin = IntPoly([-r, 1])
    e = 0
    while p.degree >= 1 and p(r) == 0:
        p = p.divexact(lin)
        e += 1
    return e


def reference_shift(p: IntPoly, c: int, sign: int = -1) -> IntPoly:
    # p(c + sign * t) by Horner's rule over IntPoly
    acc = IntPoly()
    lin = IntPoly([c, sign])
    for coeff in reversed(p.coeffs):
        acc = acc * lin + coeff
    return acc


def reference_residual(parts) -> IntPoly:
    # the coefficient formula term by term, each weight built on the spot
    k = len(parts)
    sig = [1] + [0] * k
    for v in parts:
        for i in range(k, 0, -1):
            sig[i] += v * sig[i - 1]
    out = [0] * (k + 1)
    for m in range(k + 1):
        c = comb(k, m)
        for i in range(1, m + 1):
            term = (1 << (i - 1)) * (i - 2) * comb(k - i, m - i) * sig[i]
            c += term if (i - 1) % 2 == 0 else -term
        out[k - m] = c
    return IntPoly(out)


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(small_ints, max_size=10), cofactor=cofactors, r=small_ints)
def test_root_multiplicity_matches_evaluate_then_divide(roots, cofactor, r):
    p = IntPoly.from_roots(roots) * IntPoly(cofactor)
    got = exact_root_multiplicity(p, r)
    assert got == reference_multiplicity(p, r)
    assert got >= roots.count(r)


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(small_ints, min_size=1, max_size=10), c=small_ints)
def test_roots_below_matches_horner_composition(roots, c):
    p = IntPoly.from_roots(roots)
    want = descartes_sign_changes(reference_shift(p, c))
    assert roots_below(p, c) == want == sum(1 for x in roots if x < c)


@settings(max_examples=300, deadline=None)
@given(coeffs=cofactors, c=small_ints)
def test_shift_sign_changes_match_on_any_polynomial(coeffs, c):
    # sign changes of the shifted polynomial, whether or not p is real-rooted
    p = IntPoly(coeffs)
    want = descartes_sign_changes(reference_shift(p, c))
    assert roots_below(p, c, assume_real_rooted=True) == want


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(st.integers(1, 9), min_size=1, max_size=7))
def test_assembled_ones_factor_matches_power(parts):
    # the grouped form carries linear factors (x+1-2m)^e as well
    p = Partition(parts)
    for f in (charpoly_coefficients(p), charpoly_grouped_coefficients(p)):
        want = f.residual * IntPoly([1, 1]) ** f.ones_exponent
        for size, exp in f.linear_factors:
            want = want * IntPoly([1 - 2 * size, 1]) ** exp
        assert f.expanded == want


def reference_times_ones_power(p: IntPoly, e: int) -> IntPoly:
    return p * IntPoly([1, 1]) ** e


def times_ones_power(p: IntPoly, e: int) -> IntPoly:
    # the batch kernel on a batch of one
    return IntPoly(_times_ones_powers([(p, e)])[0])


def assert_batch_matches_schoolbook(batch) -> None:
    got = _times_ones_powers(batch)
    assert len(got) == len(batch)
    for coeffs, (p, e) in zip(got, batch):
        # already normalized: no trailing zero to strip
        assert coeffs == reference_times_ones_power(p, e).coeffs, (p, e)


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(wide, max_size=20), e=ones_exponents)
def test_times_ones_power_matches_schoolbook(coeffs, e):
    p = IntPoly(coeffs)
    assert times_ones_power(p, e) == reference_times_ones_power(p, e)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 2**300),
    length=st.integers(0, 20),
    alternating=st.booleans(),
    e=ones_exponents,
)
def test_times_ones_power_at_the_lane_bound(m, length, alternating, e):
    # every coefficient +M, or alternating +-M: the two extreme sign
    # patterns of a one-norm, all of it in coefficients as wide as drawn
    p = IntPoly([-m if alternating and i % 2 else m for i in range(length)])
    assert times_ones_power(p, e) == reference_times_ones_power(p, e)


def whole_lane_constant(words: int, e: int) -> tuple[int, int]:
    # a constant M times (x+1)^e has the middle coefficient M C(e, e // 2),
    # the kernel's bound; M makes it take a whole number of 64-bit words,
    # where the lane rounded up from one bit fewer would overflow
    middle = comb(e, e // 2)
    bits = 64 * (words + middle.bit_length() // 64)
    return -(-(1 << (bits - 1)) // middle), bits


@pytest.mark.parametrize("words", [1, 2, 10])
def test_times_ones_power_fills_a_whole_lane(words):
    for e in range(71):
        m, bits = whole_lane_constant(words, e)
        for c in (m, -m):
            got = times_ones_power(IntPoly([c]), e)
            assert got == reference_times_ones_power(IntPoly([c]), e)
            assert abs(got.coeffs[e // 2]).bit_length() == bits


def test_times_ones_power_rejects_a_negative_exponent():
    # refused before any lane layout is built, not read back as garbage
    with pytest.raises(ValueError):
        _times_ones_powers([(IntPoly([1, 1]), -1)])
    with pytest.raises(ValueError):
        _times_ones_powers([(IntPoly([1]), 3), (IntPoly(), -1)])


# coefficients whose products take lanes of one, two or three 64-bit words
# at exponents up to 70, where C(e, e // 2) has up to 67 bits
lane_coeffs = st.one_of(
    st.integers(-(2**20), 2**20),
    st.integers(-(2**62), 2**62),
    st.integers(-(2**120), 2**120),
)


@settings(max_examples=300, deadline=None)
@given(
    batch=st.lists(
        st.tuples(st.lists(lane_coeffs, max_size=20).map(IntPoly), ones_exponents),
        max_size=12,
    )
)
def test_batch_matches_schoolbook(batch):
    # one lane width, the widest product's, for every product of a batch
    assert_batch_matches_schoolbook(batch)


@pytest.mark.parametrize("words", [1, 2, 3])
def test_batch_with_a_whole_lane_product(words):
    # each whole-lane product sets the batch's width for the short, long,
    # empty and e = 0 products around it
    others = [
        (IntPoly([3, -1, 1]), 5),
        (IntPoly(), 9),
        (IntPoly([7, 0, -2]), 0),
        (IntPoly(list(range(-10, 11))), 70),
    ]
    for e in (1, 2, 31, 63, 64, 70):
        m, _ = whole_lane_constant(words, e)
        batch = [*others[:2], (IntPoly([m]), e), (IntPoly([-m]), e), *others[2:]]
        assert_batch_matches_schoolbook(batch)


def test_one_part_of_sixty_four_takes_two_word_lanes():
    # K_64: residual x - 63 times (x+1)^63, whose bound 64 C(63, 31) needs
    # more than one 64-bit word
    f = charpoly_coefficients(Partition([64]))
    assert (f.residual, f.ones_exponent) == (IntPoly([-63, 1]), 63)
    assert (64 * comb(63, 31)).bit_length() + 1 > 64
    assert f.expanded == reference_times_ones_power(f.residual, 63)
    assert_batch_matches_schoolbook([(f.residual, 63)] * 3)


def test_empty_batch():
    assert _times_ones_powers([]) == []


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(st.integers(-50, 50), max_size=12), c=st.integers(-9, 9))
def test_taylor_matches_horner_composition(coeffs, c):
    p = IntPoly(coeffs)
    assert tuple(p.taylor(c)) == reference_shift(p, c, sign=1).coeffs


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.integers(1, 40), min_size=1, max_size=14))
def test_coefficient_formula_matches_per_term_loop(parts):
    assert charpoly_coefficients(Partition(parts)).residual == reference_residual(
        sorted(parts, reverse=True)
    )


def walk_lanes(sig: int, n: int) -> list[int]:
    # the lanes of the walk's packed sigma, lowest first, up to the last
    # nonzero one
    w = 64 * _walk_words(n)
    lanes = []
    while sig:
        lanes.append(sig & ((1 << w) - 1))
        sig >>= w
    return lanes


# part sizes up to 10^9 and up to 40 parts: residual lanes from one
# 64-bit word to some twenty
residual_parts = st.lists(
    st.one_of(st.integers(1, 9), st.integers(1, 10**9)), max_size=40
)


@settings(max_examples=80, deadline=None)
@given(parts=residual_parts)
@example(parts=[10**9] * 40)
@example(parts=[1] * 40)
@example(parts=[30])
@example(parts=[])
def test_sigma_residual_is_product_residual(parts):
    assert _sigma_residual(elementary_symmetric(parts)) == _product_residual(parts)


@settings(max_examples=30, deadline=None)
@given(batch=st.lists(residual_parts, max_size=6))
def test_sigma_residuals_read_each_lane_width_in_place(batch):
    # residuals of several lane widths in one call come back in input order
    sigs = [elementary_symmetric(parts) for parts in batch]
    assert _sigma_residuals(sigs) == [_product_residual(parts) for parts in batch]


@settings(max_examples=100, deadline=None)
@given(rest=st.lists(st.integers(-(2**200), 2**200), max_size=12))
@example(rest=[-(2**63 - 1)])
def test_sigma_residual_holds_any_sigma(rest):
    # the lane bound holds for any integers, at a word's edge too:
    # sigma_1 = -(2^63 - 1) makes the constant term 2^63, one bit past a
    # signed word
    sig = [1, *rest]
    rows = reversed(residual_weights(len(rest)))
    assert _sigma_residual(sig) == IntPoly([sum(map(mul, row, sig)) for row in rows])


def test_class_charpoly_is_expanded_polynomial_to_order_20():
    for n in range(1, 21):
        for k in (None, *range(1, n + 1)):
            for parts, sig in _partition_walk(n, k):
                assert walk_lanes(sig, n) == elementary_symmetric(parts)
            for cls in cospectral_classes(n, k):
                got = cls.charpoly.expanded
                for p in cls.partitions:
                    assert got == charpoly_coefficients(p).expanded, (p, k)


@st.composite
def partitions_to_cap(draw) -> Partition:
    # an order up to the search's cap, cut at a random set of points
    n = draw(st.integers(1, COSPECTRAL_CAP))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    return Partition(b - a for a, b in zip(bounds, bounds[1:]))


@settings(max_examples=40, deadline=None)
@given(p=partitions_to_cap(), with_k=st.booleans())
def test_class_charpoly_is_expanded_polynomial_to_order_36(p, with_k):
    # the walk is in descending lex order, so it stops at p
    k = p.k if with_k else None
    sig = next(sig for found, sig in _partition_walk(p.n, k) if found == p.parts)
    assert walk_lanes(sig, p.n) == elementary_symmetric(p.parts)
    cls = next(c for c in cospectral_classes(p.n, k) if p in c.partitions)
    assert cls.charpoly.expanded == charpoly_coefficients(p).expanded


def test_verdict_evidence_on_residual_matches_expanded_to_order_20():
    # (x+1)^(n-k) has no root at 1, 3, 2s - 1 or in (0, 1), so the
    # evidence read off the residual is the evidence of the full polynomial
    rules = set()
    for n in range(1, 21):
        for p in partitions_of(n):
            f = charpoly_coefficients(p)
            got = _build_verdict(p, (), f.residual)
            assert got == _build_verdict(p, (), f.expanded), p
            rules.add(forced_rule(p))
    assert rules == {None, "bipartite", "repeated_size", "trailing_ones", "trailing_2_2_1"}
