import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from seidelspec import (
    DimensionError,
    ExactDivisionError,
    IntMatrix,
    IntPoly,
    charpoly_oracle,
    elementary_symmetric,
    sigma_l,
)


def bareiss_det(rows):
    """Fraction-free elimination determinant; independent of the recurrence."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q, r = divmod(num, prev)
                assert r == 0
                a[i][j] = q
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class TestIntPoly:
    def test_difference_of_squares(self):
        assert IntPoly([1, 1]) * IntPoly([-1, 1]) == IntPoly([-1, 0, 1])

    def test_pow_and_divexact_factor_removal(self):
        p = IntPoly([1, 1]) ** 3 * IntPoly([-3, 1])
        q = p.divexact(IntPoly([1, 1]))
        assert q == IntPoly([1, 1]) ** 2 * IntPoly([-3, 1])

    def test_divexact_long_division(self):
        # (x^3 - 3x + 2) / (x - 1) = x^2 + x - 2
        assert IntPoly([2, -3, 0, 1]).divexact(IntPoly([-1, 1])) == IntPoly([-2, 1, 1])

    def test_divexact_rejects_non_divisor(self):
        with pytest.raises(ExactDivisionError):
            IntPoly([1, 0, 1]).divexact(IntPoly([-1, 1]))

    def test_divexact_rejects_zero(self):
        with pytest.raises(ExactDivisionError):
            IntPoly([1, 1]).divexact(IntPoly([]))

    @pytest.mark.parametrize("bad", [1.9, 2.0, Fraction(5, 2), "3"])
    def test_rejects_non_integer_coefficients(self, bad):
        # an exact type refuses a value it would otherwise truncate
        with pytest.raises(TypeError):
            IntPoly([1, bad])

    def test_taylor_example(self):
        # (x+1)^3 - 3(x+1) + 2 = x^3 + 3x^2: the double root 1 moves to 0
        assert list(IntPoly([2, -3, 0, 1]).taylor(1)) == [0, 0, 3, 1]
        assert list(IntPoly().taylor(5)) == []

    def test_taylor_at_zero_is_the_polynomial(self):
        # p(x + 0) = p, zero and constant polynomials included
        rng = random.Random(18)
        polys = [IntPoly(), IntPoly([7]), IntPoly([-1])]
        for _ in range(50):
            polys.append(IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 12))]))
        for p in polys:
            assert list(p.taylor(0)) == list(p.coeffs)

    def test_zero_normalization(self):
        assert IntPoly([0]).is_zero()
        assert IntPoly([0, 0]).coeffs == ()
        assert IntPoly([1, 0]).degree == 0

    def test_arith_ring_identities_random(self):
        rng = random.Random(4)
        for _ in range(50):
            a = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
            b = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
            c = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            if not b.is_zero():
                assert (a * b).divexact(b) == a

    def test_evaluate(self):
        p = IntPoly([2, -3, 0, 1])
        assert p(1) == 0
        assert p(-2) == 0
        assert p(3) == 20

    def test_to_string(self):
        assert IntPoly([19, -9, -3, 1]).to_string() == "x^3-3x^2-9x+19"
        assert IntPoly([]).to_string() == "0"
        assert IntPoly([0, 1]).to_string() == "x"
        assert IntPoly([-1]).to_string() == "-1"


class TestCharpolyOracle:
    def test_identity_2x2(self):
        assert charpoly_oracle(IntMatrix.identity(2)) == IntPoly([1, -2, 1])

    def test_seidel_of_triangle(self):
        m = IntMatrix([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
        assert charpoly_oracle(m) == IntPoly([2, -3, 0, 1])

    def test_all_ones_rank_one(self):
        m = IntMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        assert charpoly_oracle(m) == IntPoly([0, 0, -3, 1])

    def test_empty_matrix(self):
        assert charpoly_oracle(IntMatrix([])) == IntPoly([1])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2], [3, 4], [5, 6]])

    @pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(1, 2), "1"])
    def test_rejects_non_integer_entries(self, bad):
        with pytest.raises(TypeError):
            charpoly_oracle([[bad, 0], [0, 0]])

    def test_matches_fraction_free_determinant(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            p = charpoly_oracle(IntMatrix(rows))
            for t in range(-2, 3):
                shifted = [
                    [t * (i == j) - rows[i][j] for j in range(n)] for i in range(n)
                ]
                assert p(t) == bareiss_det(shifted)


class TestElementarySymmetric:
    def test_example(self):
        assert elementary_symmetric([3, 2, 1]) == [1, 6, 11, 6]

    def test_single_value(self):
        assert elementary_symmetric([7]) == [1, 7]

    def test_all_ones_binomials(self):
        assert elementary_symmetric([1, 1, 1, 1]) == [1, 4, 6, 4, 1]

    def test_empty(self):
        assert elementary_symmetric([]) == [1]

    def test_product_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            vals = [rng.randint(1, 9) for _ in range(rng.randint(1, 7))]
            sig = elementary_symmetric(vals)
            lhs = IntPoly.from_roots([-v for v in vals])
            assert list(lhs.coeffs) == sig[::-1]

    def test_against_subset_enumeration(self):
        rng = random.Random(6)
        for _ in range(10):
            vals = [rng.randint(1, 8) for _ in range(rng.randint(1, 6))]
            sig = elementary_symmetric(vals)
            for i in range(len(vals) + 1):
                assert sig[i] == sum(prod(c) for c in combinations(vals, i))


class TestSigmaL:
    def test_examples(self):
        assert sigma_l([3, 2], 1) == [0, 3, 6]
        assert sigma_l([7], 1) == [0, 7]
        assert sigma_l([2, 1], 2) == [0, 1, 2]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            sigma_l([3, 2], 0)
        with pytest.raises(IndexError):
            sigma_l([3, 2], 3)

    def test_sum_identity(self):
        # summing over the mandatory index counts each monomial i times
        rng = random.Random(7)
        for _ in range(20):
            vals = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
            sig = elementary_symmetric(vals)
            per_l = [sigma_l(vals, l) for l in range(1, len(vals) + 1)]
            for i in range(1, len(vals) + 1):
                assert sum(sl[i] for sl in per_l) == i * sig[i]

    def test_against_subset_enumeration(self):
        vals = [4, 3, 2]
        for l in range(1, 4):
            got = sigma_l(vals, l)
            for i in range(1, 4):
                expect = sum(
                    prod(c)
                    for c in combinations(vals, i)
                    if vals[l - 1] in c and c.count(vals[l - 1]) >= 1
                )
                assert got[i] == expect

