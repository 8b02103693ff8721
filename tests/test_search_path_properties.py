"""Property tests of the cospectral search's exact kernels.

Each kernel is checked against the plainer code it replaced, kept here as
the reference: root multiplicity by evaluating p(r) and then dividing
exactly by x - r, the shift x = c - t by Horner composition of IntPoly
products, and the (x+1)^e factor as a repeated IntPoly power.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from seidelspec import (
    IntPoly,
    Partition,
    charpoly_coefficients,
    descartes_sign_changes,
    exact_root_multiplicity,
    roots_below,
)

small_ints = st.integers(-6, 6)
cofactors = st.lists(st.integers(-40, 40), min_size=1, max_size=8).filter(
    lambda cs: any(cs)
)


def reference_multiplicity(p: IntPoly, r: int) -> int:
    lin = IntPoly([-r, 1])
    e = 0
    while p.degree >= 1 and p(r) == 0:
        p = p.divexact(lin)
        e += 1
    return e


def reference_shift(p: IntPoly, c: int) -> IntPoly:
    # p(c - t) by Horner's rule over IntPoly
    acc = IntPoly()
    lin = IntPoly([c, -1])
    for coeff in reversed(p.coeffs):
        acc = acc * lin + coeff
    return acc


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
    p = Partition(parts)
    f = charpoly_coefficients(p)
    assert f.expanded == IntPoly([1, 1]) ** f.ones_exponent * f.residual
