import math
import random
from fractions import Fraction

import numpy as np
import pytest

import seidelspec.multipartite as multipartite
from seidelspec import (
    ConsistencyError,
    DimensionError,
    EmptyPartitionError,
    IntMatrix,
    IntPoly,
    InvalidPartitionError,
    Partition,
    charpoly_coefficients,
    charpoly_grouped_coefficients,
    charpoly_oracle,
    charpoly_product,
    complete_multipartite,
    eigenvalue_intervals,
    least_eigenvalue_bound,
    partitions_of,
    quotient_matrix,
    seidel_matrix,
    symmetrize_quotient,
)
from seidelspec.multipartite import FactoredSeidelPoly, residual_weights

X_PLUS_1 = IntPoly([1, 1])


def seidel_eigs(p):
    rows = seidel_matrix(complete_multipartite(p)).rows
    return sorted(np.linalg.eigvalsh(np.array(rows, dtype=float)), reverse=True)


class TestPartition:
    def test_sorting_and_props(self):
        p = Partition([1, 3, 2])
        assert p.parts == (3, 2, 1)
        assert p.n == 6 and p.k == 3
        assert str(p) == "3,2,1"

    def test_grouped(self):
        assert Partition([2, 2, 1]).grouped() == ((2, 2), (1, 1))

    def test_validation(self):
        with pytest.raises(EmptyPartitionError):
            Partition([])
        with pytest.raises(InvalidPartitionError):
            Partition([2, 0])

    @pytest.mark.parametrize("bad", [2.7, 2.0, Fraction(5, 2), "2", None])
    def test_rejects_non_integer_parts(self, bad):
        with pytest.raises(InvalidPartitionError):
            Partition([bad, 1])

    def test_parse(self):
        assert Partition.parse("3,2,1") == Partition([3, 2, 1])
        assert Partition.parse("2*3,1*2") == Partition([3, 3, 2])
        assert Partition.parse("2*2,1") == Partition([2, 2, 1])
        with pytest.raises(InvalidPartitionError):
            Partition.parse("3,,1")
        with pytest.raises(InvalidPartitionError):
            Partition.parse("a,b")
        with pytest.raises(InvalidPartitionError):
            Partition.parse("0*3")
        # only ASCII digit runs: int() alone reads these as 10, 3 and 3
        for text in ("1_0,2", "+3", "\u0663"):
            with pytest.raises(InvalidPartitionError):
                Partition.parse(text)

    def test_ordering(self):
        assert sorted([Partition([3, 1]), Partition([2, 2])]) == [
            Partition([2, 2]),
            Partition([3, 1]),
        ]


class TestQuotientMatrix:
    def test_two_singletons(self):
        assert quotient_matrix(Partition([1, 1])) == IntMatrix([[0, -1], [-1, 0]])

    def test_single_part(self):
        assert quotient_matrix(Partition([7])) == IntMatrix([[6]])

    def test_three_equal_parts(self):
        b = quotient_matrix(Partition([2, 2, 2]))
        assert b == IntMatrix([[1, -2, -2], [-2, 1, -2], [-2, -2, 1]])
        # eigenvalues 3, 3, -3
        assert charpoly_oracle(b) == IntPoly.from_roots([3, 3, -3])


class TestClosedForms:
    def test_triangle(self):
        f = charpoly_product(Partition([1, 1, 1]))
        assert f.ones_exponent == 0
        assert f.residual == IntPoly([2, -3, 0, 1])
        assert f.expanded == IntPoly([2, -3, 0, 1])

    def test_three_two_one(self):
        f = charpoly_product(Partition([3, 2, 1]))
        expected = X_PLUS_1 ** 3 * IntPoly([19, -9, -3, 1])
        assert f.expanded == expected
        assert f.factored_str() == "(x+1)^3 * (x^3-3x^2-9x+19)"

    def test_coefficient_form_residuals(self):
        assert charpoly_coefficients(Partition([3, 2, 1])).residual == IntPoly(
            [19, -9, -3, 1]
        )
        # four singletons: (x-1)^3 (x+3)
        f = charpoly_coefficients(Partition([1, 1, 1, 1]))
        assert f.expanded == IntPoly.from_roots([1, 1, 1, -3])

    def test_residual_weights_small_k(self):
        # x^3 + (3 - s1) x^2 + (3 - 2 s1) x + (1 - s1 + 4 s3); s2 has weight 0
        assert residual_weights(3) == ((1,), (3, -1), (3, -2, 0), (1, -1, 0, 4))
        assert all(len(row) == m + 1 for m, row in enumerate(residual_weights(9)))
        # the search keys on (s3, ..., sk): s2 has weight 0 in every row and
        # each row m >= 3 gives s_m a nonzero weight
        for k in range(1, 65):
            rows = residual_weights(k)
            assert all(row[2] == 0 for row in rows[2:]), k
            assert all(row[m] for m, row in enumerate(rows) if m != 2), k

    def test_residual_weight_columns_are_powers_of_x_plus_1(self):
        # column i of the rows, constant term first, is c_i (x+1)^(k-i)
        # with c_0 = 1 and c_i = (-2)^(i-1) (i-2)
        for k in range(65):
            rows = residual_weights(k)
            for i in range(k + 1):
                c = 1 if i == 0 else (-2) ** (i - 1) * (i - 2)
                column = IntPoly([rows[k - j][i] if k - j >= i else 0 for j in range(k + 1)])
                assert column == c * X_PLUS_1 ** (k - i), (k, i)

    def test_two_parts_similar_to_empty_graph(self):
        rng = random.Random(31)
        for _ in range(10):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
            n = n1 + n2
            f = charpoly_product(Partition([n1, n2]))
            assert f.expanded == X_PLUS_1 ** (n - 1) * IntPoly([-(n - 1), 1])

    def test_grouped_two_two_one(self):
        f = charpoly_grouped_coefficients(Partition([2, 2, 1]))
        assert f.ones_exponent == 2
        assert f.linear_factors == ((2, 1),)
        assert f.residual == IntPoly([-4, 1, 1])
        assert f.expanded == X_PLUS_1 ** 2 * IntPoly([-3, 1]) * IntPoly([-4, 1, 1])
        assert f.factored_str() == "(x+1)^2 * (x-3) * (x^2+x-4)"

    def test_grouped_three_equal_parts(self):
        for m in range(1, 5):
            f = charpoly_grouped_coefficients(Partition([m, m, m]))
            assert f.linear_factors == ((m, 2),)
            assert f.residual.degree == 1
            assert f.expanded == charpoly_product(Partition([m, m, m])).expanded

    def test_grouped_equals_flat_when_all_distinct(self):
        rng = random.Random(32)
        for _ in range(15):
            k = rng.randint(1, 5)
            parts = rng.sample(range(1, 12), k)
            p = Partition(parts)
            flat = charpoly_coefficients(p)
            grouped = charpoly_grouped_coefficients(p)
            assert grouped.linear_factors == ()
            assert grouped.residual == flat.residual
            assert grouped.expanded == flat.expanded

    def test_degenerate_cases_do_not_crash(self):
        # single part: spectrum of J - I
        f = charpoly_product(Partition([5]))
        assert f.expanded == X_PLUS_1 ** 4 * IntPoly([-4, 1])
        # all singletons: spectrum of -(J - I)
        f = charpoly_product(Partition([1] * 6))
        assert f.expanded == IntPoly.from_roots([1] * 5 + [-5])

    def test_triple_agreement(self):
        for n in range(1, 11):
            for p in partitions_of(n):
                a = charpoly_product(p)
                b = charpoly_coefficients(p)
                c = charpoly_grouped_coefficients(p)
                d = charpoly_oracle(seidel_matrix(complete_multipartite(p)))
                assert a.expanded == b.expanded == c.expanded == d

    def test_quotient_consistency(self):
        for n in range(1, 11):
            for p in partitions_of(n):
                assert charpoly_oracle(quotient_matrix(p)) == charpoly_product(p).residual


class TestAssemble:
    @pytest.fixture(autouse=True)
    def no_expansion(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("assemble expanded the polynomial")

        monkeypatch.setattr(multipartite, "_times_ones_powers", refuse)

    @pytest.mark.parametrize(
        "ones, factors, residual, order",
        [
            pytest.param(2, (), IntPoly([1, 2]), 3, id="non-monic"),
            pytest.param(2, ((3, 1),), IntPoly([1, -1, 1, 2]), 6, id="non-monic-factored"),
            pytest.param(2, (), IntPoly(), 2, id="zero"),
            pytest.param(2, (), IntPoly(), 1, id="zero-at-its-degree"),
            pytest.param(2, (), IntPoly([1, 1]), 4, id="degree-mismatch"),
            pytest.param(2, ((3, 2),), IntPoly([5, 1]), 4, id="degree-mismatch-factored"),
        ],
    )
    def test_refusals(self, ones, factors, residual, order):
        with pytest.raises(ConsistencyError):
            FactoredSeidelPoly.assemble(ones, factors, residual, order)

    def test_a_billion_vertices_is_not_expanded(self):
        f = charpoly_coefficients(Partition([10**9]))
        assert f.ones_exponent == 10**9 - 1
        assert f.residual == IntPoly([1 - 10**9, 1])


class TestBound:
    def test_all_singletons(self):
        for k in range(1, 8):
            b = least_eigenvalue_bound(Partition([1] * k))
            assert b.value == pytest.approx(-(k - 1), abs=1e-12)

    def test_three_equal_pairs(self):
        assert least_eigenvalue_bound(Partition([2, 2, 2])).value == pytest.approx(-3.0)

    def test_three_two_one(self):
        b = least_eigenvalue_bound(Partition([3, 2, 1]))
        expected = 2.0 - 1.0 - (2.0 / 3.0) * (
            math.sqrt(6) + math.sqrt(3) + math.sqrt(2)
        )
        assert b.value == pytest.approx(expected, rel=1e-12)
        assert b.radicands == (2, 3, 6)
        assert b.rational == Fraction(1)
        assert b.sqrt_coefficient == Fraction(-2, 3)
        least = seidel_eigs(Partition([3, 2, 1]))[-1]
        assert least <= b.value + 1e-8

    def test_upper_bounds_hold(self):
        for n in range(1, 11):
            for p in partitions_of(n):
                b = least_eigenvalue_bound(p)
                assert seidel_eigs(p)[-1] <= b.value + 1e-8

    def test_equal_parts_tight(self):
        for k in range(2, 7):
            for m in range(1, 13 // k + 1):
                p = Partition([m] * k)
                b = least_eigenvalue_bound(p)
                assert b.value == pytest.approx(-1.0 - (k - 2) * m, abs=1e-9)
                assert seidel_eigs(p)[-1] == pytest.approx(b.value, abs=1e-8)


class TestSymmetrize:
    def test_identity_scaling(self):
        p = Partition([1, 1])
        bt = symmetrize_quotient(quotient_matrix(p), p)
        assert bt == [[0.0, -1.0], [-1.0, 0.0]]

    def test_off_diagonal_is_minus_sqrt_product(self):
        p = Partition([4, 1])
        bt = symmetrize_quotient(quotient_matrix(p), p)
        assert bt[0][1] == pytest.approx(-2.0)
        assert bt[1][0] == pytest.approx(-2.0)

    def test_equal_parts_unchanged(self):
        p = Partition([2, 2, 2])
        bt = symmetrize_quotient(quotient_matrix(p), p)
        assert bt == [[1.0, -2.0, -2.0], [-2.0, 1.0, -2.0], [-2.0, -2.0, 1.0]]

    def test_symmetric_and_cospectral_with_quotient(self):
        rng = random.Random(33)
        for _ in range(15):
            parts = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
            p = Partition(parts)
            b = quotient_matrix(p)
            bt = symmetrize_quotient(b, p)
            k = p.k
            for i in range(k):
                for j in range(k):
                    assert abs(bt[i][j] - bt[j][i]) <= 1e-12
                    if i != j:
                        assert bt[i][j] == pytest.approx(
                            -math.sqrt(p.parts[i] * p.parts[j])
                        )
            got = sorted(np.linalg.eigvalsh(np.array(bt)))
            want = sorted(np.linalg.eigvals(np.array([list(r) for r in b.rows], dtype=float)).real)
            assert np.allclose(got, want, atol=1e-8)

    def test_symmetric_bit_for_bit_up_to_order_12(self):
        # b_ij / n_j and b_ji / n_i are one rational, rounded once, and
        # n_i n_j one integer; the diagonal n_i - 1 is exact
        for n in range(1, 13):
            for p in partitions_of(n):
                bt = symmetrize_quotient(quotient_matrix(p), p)
                rows = [list(map(float.hex, row)) for row in bt]
                assert rows == [list(col) for col in zip(*rows)], p
                assert [bt[i][i] for i in range(p.k)] == [m - 1 for m in p.parts]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            symmetrize_quotient(IntMatrix([[1]]), Partition([1, 1]))


def rayleigh_quotient(m, x) -> float:
    # x^T M x / x^T x
    num = math.fsum(xi * mij * xj for row, xi in zip(m, x) for mij, xj in zip(row, x))
    return num / math.fsum(v * v for v in x)


class TestRayleigh:
    def test_matches_bound_for_equal_parts(self):
        p = Partition([2, 2, 2])
        bt = symmetrize_quotient(quotient_matrix(p), p)
        assert rayleigh_quotient(bt, [1, 1, 1]) == pytest.approx(-3.0)

    def test_all_ones_vector_gives_bound(self):
        rng = random.Random(34)
        for _ in range(15):
            parts = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
            p = Partition(parts)
            bt = symmetrize_quotient(quotient_matrix(p), p)
            rq = rayleigh_quotient(bt, [1.0] * p.k)
            assert rq == pytest.approx(least_eigenvalue_bound(p).value, abs=1e-9)


class TestIntervals:
    def test_three_two_one(self):
        s = eigenvalue_intervals(Partition([3, 2, 1]))
        assert s.intervals == ((3, 5), (1, 3))
        assert s.minus_one_multiplicity == 3
        assert s.positive_count == 2
        assert s.least_is_simple_below_minus_one

    def test_triangle_forces_ones(self):
        s = eigenvalue_intervals(Partition([1, 1, 1]))
        assert s.intervals == ((1, 1), (1, 1))
        assert s.minus_one_multiplicity == 0

    def test_two_parts_all_minus_one(self):
        rng = random.Random(35)
        for _ in range(10):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
            s = eigenvalue_intervals(Partition([n1, n2]))
            assert s.minus_one_multiplicity == n1 + n2 - 1
            assert not s.least_is_simple_below_minus_one

    def test_single_part(self):
        s = eigenvalue_intervals(Partition([4]))
        assert s.intervals == ()
        assert s.positive_count == 1
        assert s.minus_one_multiplicity == 3

    def test_positive_eigenvalues_interlace(self):
        for n in range(2, 11):
            for p in partitions_of(n):
                s = eigenvalue_intervals(p)
                eigs = seidel_eigs(p)
                for i, (lo, hi) in enumerate(s.intervals):
                    assert lo - 1e-8 <= eigs[i] <= hi + 1e-8
