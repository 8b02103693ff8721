import json
import math
import random
from collections import Counter
from struct import Struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seidelspec import (
    AsymmetryError,
    CapExceededError,
    ConsistencyError,
    ConvergenceError,
    Graph,
    IntMatrix,
    IntPoly,
    NonFiniteError,
    Partition,
    ZeroPolynomialError,
    charpoly_product,
    complete_multipartite,
    descartes_sign_changes,
    exact_root_multiplicity,
    is_real_rooted,
    partitions_of,
    positive_root_count,
    roots_below,
    roots_in_open_interval,
    seidel_matrix,
    spectrum_report,
    symmetric_eigenvalues,
)
from seidelspec import spectra
from seidelspec.multipartite import quotient_matrix, symmetrize_quotient
from seidelspec.spectra import COMPARISON_TOL, _primitive, sturm_chain

X_PLUS_1 = IntPoly([1, 1])


def sturm_real_roots(p: IntPoly) -> int:
    # distinct real roots: sign variations of the Sturm chain at -inf minus
    # those at +inf, where no member vanishes
    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    chain = sturm_chain(p)
    at_plus = [1 if f.leading > 0 else -1 for f in chain]
    at_minus = [s if f.degree % 2 == 0 else -s for s, f in zip(at_plus, chain)]
    return variations(at_minus) - variations(at_plus)


def reference_prem(f: IntPoly, g: IntPoly) -> IntPoly:
    # pseudo-remainder lead(g)^(deg f - deg g + 1) f mod g, sign-corrected
    # so that the scale factor is positive
    delta = f.degree - g.degree
    if delta < 0:
        return f
    lead = g.leading
    r = f
    steps = 0
    while not r.is_zero() and r.degree >= g.degree:
        shift = r.degree - g.degree
        top = r.leading
        r = r * lead - g * IntPoly([0] * shift + [top])
        steps += 1
    total = delta + 1
    if steps < total:
        r = r * (lead ** (total - steps))
    if lead < 0 and total % 2 == 1:
        r = -r
    return r


def reference_chain(p: IntPoly) -> list[IntPoly]:
    chain = [_primitive(p)]
    d = p.derivative()
    if not d.is_zero():
        chain.append(_primitive(d))
        while chain[-1].degree > 0:
            r = reference_prem(chain[-2], chain[-1])
            if r.is_zero():
                break
            chain.append(_primitive(-r))
    return chain


def reference_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    # Euclid on primitive remainders, as is_real_rooted ran it beside the
    # Sturm chain before reading gcd(p, p') off the chain's last member
    a, b = _primitive(p), _primitive(q)
    while not b.is_zero():
        a, b = b, _primitive(reference_prem(a, b))
    if a.leading < 0:
        a = -a
    return a


def reference_jacobi(m) -> list[float]:
    # the cyclic Jacobi solver symmetric_eigenvalues ran before Householder
    # + QL: rotations swept in a fixed row order until the off-diagonal
    # Frobenius norm drops below 1e-12 times the matrix norm
    a = [[float(v) for v in row] for row in m]
    n = len(a)
    norm = math.sqrt(math.fsum(a[i][j] ** 2 for i in range(n) for j in range(n)))
    for _ in range(64):
        off = math.sqrt(
            2.0 * math.fsum(a[i][j] ** 2 for i in range(n) for j in range(i + 1, n))
        )
        if off <= 1e-12 * norm or norm == 0.0:
            return sorted((a[i][i] for i in range(n)), reverse=True)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                if abs(theta) > 1e12:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(n):
                    if r == p or r == q:
                        continue
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = c * arp - s * arq
                    a[r][q] = a[q][r] = s * arp + c * arq
    raise AssertionError("reference Jacobi did not converge")


def reference_prepared(m) -> list[list[float]]:
    # the scaled and averaged rows that symmetric_eigenvalues reduced
    # before it skipped the averaging of bitwise symmetric rows
    a = [[float(v) for v in row] for row in m]
    n = len(a)
    shift = math.frexp(max(abs(v) for row in a for v in row))[1]
    a = [[math.ldexp(v, -shift) for v in row] for row in a]
    for i in range(n):
        for j in range(i + 1, n):
            v = (a[i][j] + a[j][i]) / 2.0
            a[i][j] = a[j][i] = v
    return a


def bits(values) -> list[str]:
    # float.hex tells -0.0 from 0.0, which == does not
    return [v.hex() for v in values]


def finder_input(m) -> list[list[float]] | None:
    # the scaled, symmetric rows symmetric_eigenvalues hands to the run
    # finder; None for a zero matrix, which is not reduced
    seen = []
    find = spectra._run_classes

    def spy(a):
        seen.append([row[:] for row in a])
        return find(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_run_classes", spy)
        symmetric_eigenvalues(m)
    if not any(map(any, m)):
        assert seen == []
        return None
    (a,) = seen
    return a


def core_order(m) -> int:
    # the order of the core that symmetric_eigenvalues reduces
    seen = []
    reduce = spectra._tridiagonalize

    def spy(a):
        seen.append(len(a))
        return reduce(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_tridiagonalize", spy)
        symmetric_eigenvalues(m)
    (order,) = seen
    return order


def reference_tol(m) -> float:
    # 1e-9 times the Frobenius norm, at least 1e-9
    return 1e-9 * max(1.0, math.sqrt(sum(float(v) ** 2 for row in m for v in row)))


def numpy_eigenvalues(m) -> list[float]:
    return sorted(np.linalg.eigvalsh(np.array(m, dtype=float)), reverse=True)


ENTRY = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


@st.composite
def random_symmetric(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    size = n * (n + 1) // 2
    upper = iter(draw(st.lists(ENTRY, min_size=size, max_size=size)))
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = next(upper)
    return a


@st.composite
def block_diagonal(draw):
    # zero rows left of a block's first row take the zero-scale branch
    blocks = draw(st.lists(random_symmetric(max_n=8), min_size=2, max_size=3))
    n = sum(len(b) for b in blocks)
    a = [[0.0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            a[at + i][at : at + len(b)] = row
        at += len(b)
    return a


@st.composite
def tridiagonal(draw):
    n = draw(st.integers(1, 24))
    diag = draw(st.lists(ENTRY, min_size=n, max_size=n))
    off = draw(st.lists(ENTRY, min_size=n - 1, max_size=n - 1))
    a = [[0.0] * n for _ in range(n)]
    for i, v in enumerate(diag):
        a[i][i] = v
    for i, v in enumerate(off):
        a[i][i + 1] = a[i + 1][i] = v
    return a


@st.composite
def scaled_all_ones(draw):
    # a*J or a*(J - I): eigenvalue n - 1 or n times a, the rest 0 or -a
    n = draw(st.integers(1, 24))
    a = draw(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    diag = 0.0 if draw(st.booleans()) else a
    return [[diag if i == j else a for j in range(n)] for i in range(n)]


@st.composite
def shifted_low_rank(draw):
    # sigma I + sum of r <= 3 outer products v v^T: after about r
    # reflections every row left is roundoff, which the reduction skips
    n = draw(st.integers(1, 24))
    sigma = draw(ENTRY)
    vectors = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), max_size=3))
    return [
        [(sigma if i == j else 0.0) + math.fsum(v[i] * v[j] for v in vectors) for j in range(n)]
        for i in range(n)
    ]


multipartite_seidel = (
    st.lists(st.integers(1, 6), min_size=1, max_size=6)
    .filter(lambda parts: sum(parts) <= 24)
    .map(lambda parts: seidel_matrix(complete_multipartite(parts)).rows)
)

SYMMETRIC_MATRICES = st.one_of(
    random_symmetric(),
    st.lists(ENTRY, min_size=1, max_size=24).map(
        lambda diag: [[v if i == j else 0.0 for j in range(len(diag))] for i, v in enumerate(diag)]
    ),
    block_diagonal(),
    tridiagonal(),
    scaled_all_ones(),
    multipartite_seidel,
    shifted_low_rank(),
)

ORDER_64 = seidel_matrix(complete_multipartite([17, 16, 10, 8, 4, 4, 3, 2])).rows


class TestJacobi:
    def test_identity(self):
        assert symmetric_eigenvalues([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]

    def test_all_plus_seidel(self):
        eigs = symmetric_eigenvalues(seidel_matrix(complete_multipartite([4])))
        assert eigs == pytest.approx([3, -1, -1, -1], abs=1e-10)

    def test_matches_numpy_random(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 12)
            a = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.uniform(-5, 5)
            got = symmetric_eigenvalues(a)
            want = sorted(np.linalg.eigvalsh(np.array(a)), reverse=True)
            assert got == pytest.approx(want, abs=1e-9)

    def test_eigenvalues_match_exact_roots(self):
        p = Partition([3, 2, 1])
        eigs = symmetric_eigenvalues(seidel_matrix(complete_multipartite(p)))
        full = charpoly_product(p).expanded
        coeffs = [float(c) for c in full.coeffs[::-1]]
        for e in eigs:
            assert abs(np.polyval(coeffs, e)) <= 1e-8 * (1 + abs(e)) ** p.n

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetryError):
            symmetric_eigenvalues([[0, 1], [0.5, 0]])

    def test_symmetry_tolerance_relative_to_largest_entry(self):
        # symmetric to one ulp at a large scale: accepted
        v = 1e10
        got = symmetric_eigenvalues([[0, v], [v * (1 + 2**-52), 0]])
        assert got == pytest.approx([v, -v], rel=1e-12)
        # antisymmetric at a tiny scale: rejected, not symmetrised to zero
        with pytest.raises(AsymmetryError):
            symmetric_eigenvalues([[0, 1e-12], [-1e-12, 0]])

    def test_empty(self):
        assert symmetric_eigenvalues([]) == []

    @settings(max_examples=200, deadline=None)
    @given(m=SYMMETRIC_MATRICES)
    @example(m=ORDER_64)
    # couplings between zero diagonal entries, which a deflation test
    # relative to the two neighbouring diagonal entries alone never splits
    @example(m=[[0, 1, 0, 0], [1, 0, 2.5e-130, 0], [0, 2.5e-130, 0, 7e-234], [0, 0, 7e-234, 0]])
    def test_matches_jacobi_and_numpy(self, m):
        got = symmetric_eigenvalues(m)
        assert got == pytest.approx(reference_jacobi(m), abs=reference_tol(m))
        assert got == pytest.approx(numpy_eigenvalues(m), abs=reference_tol(m))

    @pytest.mark.parametrize("n", range(16, 65, 8))
    def test_large_multipartite_matches_numpy(self, n):
        # one K_P per order 16, 24, ..., 64, 3 to 8 parts, as in the
        # benchmark's large workload; all but about k rows are skipped
        rng = random.Random(n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(3, 8) - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        m = seidel_matrix(complete_multipartite(parts)).rows
        got = symmetric_eigenvalues(m)
        assert got == pytest.approx(numpy_eigenvalues(m), abs=reference_tol(m))

    @pytest.mark.parametrize("size, noise", [(1, 3), (2, 1), (5, 4), (8, 8)])
    def test_roundoff_rows_leave_the_leading_block_alone(self, size, noise):
        # rows whose off-diagonal 1-norm is at most EIGEN_CONVERGENCE after a
        # dense block B count as reduced: B's (d, e) is what B alone gives,
        # where reflecting the noise would rotate B
        rng = random.Random(size * 100 + noise)
        n = size + noise
        a = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                v = rng.uniform(-1, 1)
                if size <= i and j < i:
                    v *= spectra.EIGEN_CONVERGENCE / (2 * i)
                a[i][j] = a[j][i] = v
        block = [row[:size] for row in a[:size]]
        d, e = spectra._tridiagonalize([row[:] for row in a])
        d_block, e_block = spectra._tridiagonalize(block)
        assert d[:size] == d_block and e[:size] == e_block
        assert d[size:] == [a[i][i] for i in range(size, n)]
        assert e[size:] == [a[i][i - 1] for i in range(size, n)]

    def test_skip_threshold_is_eigen_convergence(self):
        # a last row of off-diagonal 1-norm exactly EIGEN_CONVERGENCE is
        # skipped; at twice that it is reflected, which swaps the block's rows
        tiny = spectra.EIGEN_CONVERGENCE
        for off, skipped in ((tiny, True), (2 * tiny, False)):
            a = [[0.5, 0.25, off], [0.25, -0.5, 0.0], [off, 0.0, 0.125]]
            d, e = spectra._tridiagonalize(a)
            assert (d == [0.5, -0.5, 0.125] and e[2] == 0.0) is skipped

    @pytest.mark.parametrize(
        "m",
        [[[0, math.inf], [math.inf, 0]], [[math.nan]], [[10**400]]],
        ids=["inf", "nan", "int-beyond-float"],
    )
    def test_non_finite_refused(self, m):
        with pytest.raises(NonFiniteError):
            symmetric_eigenvalues(m)
        assert issubclass(NonFiniteError, ValueError)

    def test_huge_entries_do_not_overflow(self):
        eigs = symmetric_eigenvalues([[1e300, 1e300], [1e300, 1e300]])
        assert eigs == pytest.approx([2e300, 0.0], abs=1e-15 * 2e300)

    def test_eigenvalue_beyond_float_range_refused(self):
        with pytest.raises(NonFiniteError):
            symmetric_eigenvalues([[1.5e308, 1.5e308], [1.5e308, 1.5e308]])

    def test_iteration_cap(self, monkeypatch):
        # unequal diagonal entries: no run, so the 2 x 2 matrix reaches QL
        monkeypatch.setattr(spectra, "_MAX_QL_ITERATIONS", 0)
        with pytest.raises(ConvergenceError):
            symmetric_eigenvalues([[0, 1], [1, 0.5]])


TWIN_ENTRY = st.one_of(ENTRY, st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@st.composite
def twin_blow_up(draw):
    # a random symmetric matrix on m classes, each class blown up to a run
    # of 1 to 6 consecutive twin rows with its own diagonal entry, with
    # the run sizes; exact zeros and units make signed zeros and adjacent
    # classes that merge into one run likely
    runs = draw(st.lists(st.integers(1, 6), min_size=1, max_size=10))
    m = len(runs)
    upper = iter(draw(st.lists(TWIN_ENTRY, min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2)))
    base = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            base[i][j] = base[j][i] = next(upper)
    diag = draw(st.lists(TWIN_ENTRY, min_size=m, max_size=m))
    cls = [c for c, r in enumerate(runs) for _ in range(r)]
    return runs, [
        [diag[ci] if i == j else base[ci][cj] for j, cj in enumerate(cls)]
        for i, ci in enumerate(cls)
    ]


@st.composite
def partition_up_to_64(draw):
    rest = draw(st.integers(1, 64))
    parts = []
    while rest:
        parts.append(draw(st.integers(1, rest)))
        rest -= parts[-1]
    return Partition(parts)


class TestTwinReduction:
    """symmetric_eigenvalues deflates the exchangeable runs of twin rows
    that exactalg._run_classes finds, the oracle's run finder."""

    @settings(max_examples=150, deadline=None)
    @given(case=twin_blow_up())
    @example(case=([3], [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    def test_twin_blow_ups(self, case):
        # the spectrum is right, and a run r of n_r rows gives its b_r =
        # d_r - v_r of the scaled rows, scaled back, exactly and at least
        # n_r - 1 times (adjacent runs may merge into one)
        runs, a = case
        got = symmetric_eigenvalues(a)
        assert got == pytest.approx(reference_jacobi(a), abs=reference_tol(a))
        scaled = reference_prepared(a)
        shift = math.frexp(max(abs(v) for row in a for v in row))[1]
        twins = Counter()
        lo = 0
        for size in runs:
            if size > 1:
                twins[math.ldexp(scaled[lo][lo] - scaled[lo][lo + 1], shift)] += size - 1
            lo += size
        assert not twins - Counter(got)

    @settings(max_examples=100, deadline=None)
    @given(p=partition_up_to_64())
    @example(p=Partition([2] * 32))
    @example(p=Partition([4] * 16))
    @example(p=Partition([1] * 64))
    @example(p=Partition([17, 16, 10, 8, 4, 4, 3, 2]))
    def test_seidel_matrices_and_quotients(self, p):
        # K_P reduces to a core of one row per part of two or more and one
        # for its singletons, beside -1 exactly n - k times; its quotient,
        # whose runs are its equal parts, to one row per part size
        s = seidel_matrix(complete_multipartite(p))
        rows = s.rows
        eigs = symmetric_eigenvalues(rows)
        assert eigs == pytest.approx(numpy_eigenvalues(rows), abs=reference_tol(rows))
        assert eigs.count(-1.0) >= p.n - p.k
        # the IntMatrix takes the integer path, to the same bits
        assert bits(symmetric_eigenvalues(s)) == bits(eigs)
        bt = symmetrize_quotient(quotient_matrix(p), p)
        assert symmetric_eigenvalues(bt) == pytest.approx(numpy_eigenvalues(bt), abs=reference_tol(bt))
        if p.n > 1:
            # K_1 and its quotient are zero matrices, which are not reduced
            assert core_order(rows) == sum(m > 1 for m in p.parts) + (1 in p.parts)
            assert core_order(s) == core_order(rows)
            assert core_order(bt) == len(set(p.parts))

    @settings(max_examples=100, deadline=None)
    @given(m=SYMMETRIC_MATRICES)
    def test_prepared_rows(self, m):
        # skipping the averaging of bitwise symmetric rows hands the
        # run finder the same rows as averaging them
        a = finder_input(m)
        if a is not None:
            assert list(map(bits, a)) == list(map(bits, reference_prepared(m)))

    @pytest.mark.parametrize(
        "m",
        [
            # asymmetric in the sign of a zero only: averaged, to 0.0
            [[1.0, 0.0, 2.0], [-0.0, 1.0, 2.0], [2.0, 2.0, 3.0]],
            # asymmetric within SYMMETRY_TOL
            [[0.0, 1.0], [1.0 + 2**-52, 0.0]],
            # symmetrised quotient of 5,5,3: symmetric by construction, and
            # a run of two twin rows
            symmetrize_quotient(quotient_matrix(Partition([5, 5, 3])), Partition([5, 5, 3])),
        ],
    )
    def test_averaged_rows(self, m):
        assert list(map(bits, finder_input(m))) == list(map(bits, reference_prepared(m)))

    def test_run_finder_takes_signed_zeros_as_one_value(self):
        # rows 0 and 1 are twins up to the sign of a zero, which the
        # symmetry check tells apart and the run finder does not
        a = [[0.0, 1.0, 0.0, 2.0], [1.0, 0.0, -0.0, 2.0], [0.0, -0.0, 5.0, 3.0], [2.0, 2.0, 3.0, 1.0]]
        assert spectra._run_classes(a) == [(0, 2), (2, 3), (3, 4)]
        eigs = symmetric_eigenvalues(a)
        assert -1.0 in eigs
        assert eigs == pytest.approx(numpy_eigenvalues(a), abs=reference_tol(a))
        pack = Struct("2d").pack
        assert not spectra._bitwise_symmetric([[1.0, 0.0], [-0.0, 1.0]], pack)
        assert spectra._bitwise_symmetric([[1.0, -0.0], [-0.0, 1.0]], pack)

    def test_unequal_diagonal_entry_breaks_a_run(self):
        # columns 0, 1 and 2 agree outside their own rows, but entry (2, 2)
        # differs: the run is (0, 2), with b = -1
        a = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.5]]
        assert spectra._run_classes(a) == [(0, 2), (2, 3)]
        assert spectra._run_classes([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]) == [(0, 3)]
        eigs = symmetric_eigenvalues(a)
        assert -1.0 in eigs
        assert eigs == pytest.approx(numpy_eigenvalues(a), abs=reference_tol(a))

    @pytest.mark.parametrize(
        "a, classes, eigs",
        [
            ([], [], []),
            ([[2.0]], [(0, 1)], [2.0]),
            ([[1.0, -0.5], [-0.5, 1.0]], [(0, 2)], [1.5, 0.5]),
            ([[-0.0, 0.0], [0.0, 0.0]], [(0, 2)], [0.0, 0.0]),
            ([[1.0, -0.5], [-0.5, 0.75]], [(0, 1), (1, 2)], None),
        ],
        ids=["order-0", "order-1", "order-2-run", "order-2-zero", "order-2-no-run"],
    )
    def test_run_finder_at_orders_zero_to_two(self, a, classes, eigs):
        assert spectra._run_classes(a) == classes
        got = symmetric_eigenvalues(a)
        assert got == (eigs if eigs is not None else pytest.approx(reference_jacobi(a), abs=1e-12))

    def test_twins_are_found_in_k_p(self):
        # each part is one run, and adjacent parts of size 1 merge into one
        a = [[float(v) for v in row] for row in seidel_matrix(complete_multipartite([3, 2, 1, 1])).rows]
        assert spectra._run_classes(a) == [(0, 3), (3, 5), (5, 7)]


def float_path(m: IntMatrix) -> list[float]:
    # the same matrix as float rows, which take the float checks
    return symmetric_eigenvalues([list(map(float, row)) for row in m.rows])


@st.composite
def k_p_up_to_64(draw):
    # K_P as built, or relabelled by a random permutation
    g = complete_multipartite(draw(partition_up_to_64()))
    if draw(st.booleans()):
        g = g.relabel(draw(st.permutations(range(g.n))))
    return seidel_matrix(g)


@st.composite
def random_seidel(draw):
    n = draw(st.integers(0, 64))
    return seidel_matrix(Graph.from_mask(n, draw(st.integers(0, 2 ** math.comb(n, 2) - 1))))


# every int below 2^53 in magnitude is a float exactly
EXACT_INT = st.one_of(
    st.integers(-(2**53 - 1), 2**53 - 1),
    st.sampled_from([0, 1, -1, 2**52, -(2**52), 2**53 - 1, -(2**53 - 1)]),
)


@st.composite
def int_blow_up(draw):
    # a random symmetric int matrix on m classes, each class blown up to a
    # run of 1 to 6 twin rows with its own diagonal entry
    runs = draw(st.lists(st.integers(1, 6), min_size=1, max_size=10))
    m = len(runs)
    upper = iter(draw(st.lists(EXACT_INT, min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2)))
    base = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            base[i][j] = base[j][i] = next(upper)
    diag = draw(st.lists(EXACT_INT, min_size=m, max_size=m))
    cls = [c for c, r in enumerate(runs) for _ in range(r)]
    return IntMatrix(
        [[diag[ci] if i == j else base[ci][cj] for j, cj in enumerate(cls)] for i, ci in enumerate(cls)]
    )


K_64_GRAPH = complete_multipartite([17, 16, 14, 9, 4, 3, 1])
K_64 = seidel_matrix(K_64_GRAPH)
SEEDED_PERMUTATION = list(range(64))
random.Random(2019).shuffle(SEEDED_PERMUTATION)


def refuse_float_input(mp):
    # the float path's whole-matrix passes fail the test if they run
    def refuse(*args):
        raise AssertionError("float path taken")

    mp.setattr(spectra, "_as_float_rows", refuse)
    mp.setattr(spectra, "_bitwise_symmetric", refuse)


class TestIntegerInput:
    """An exactly symmetric IntMatrix with entries below 2^53 is solved
    from its ints, to the bits of the same matrix as floats."""

    @settings(max_examples=100, deadline=None)
    @given(m=st.one_of(k_p_up_to_64(), random_seidel(), int_blow_up()))
    @example(m=K_64)
    @example(m=seidel_matrix(K_64_GRAPH.relabel(SEEDED_PERMUTATION)))
    @example(m=IntMatrix([[2**53 - 1, 2**52], [2**52, 2**53 - 1]]))
    def test_matches_float_rows(self, m):
        assert bits(symmetric_eigenvalues(m)) == bits(float_path(m))

    def test_k_p_is_solved_from_its_ints(self, monkeypatch):
        # the run finder gets the int rows themselves, no n x n float list
        # is built, and only the core of one row per part is reduced
        seen = []
        find, reduce = spectra._run_classes, spectra._tridiagonalize

        def spy_find(rows):
            seen.append(rows)
            return find(rows)

        def spy_reduce(a):
            seen.append(len(a))
            return reduce(a)

        expected = float_path(K_64)
        refuse_float_input(monkeypatch)
        monkeypatch.setattr(spectra, "_run_classes", spy_find)
        monkeypatch.setattr(spectra, "_tridiagonalize", spy_reduce)
        assert bits(symmetric_eigenvalues(K_64)) == bits(expected)
        assert seen[0] is K_64.rows
        assert seen[1:] == [7]

    def test_twin_free_int_matrix(self, monkeypatch):
        # a matrix without runs is scaled from its ints too
        m = IntMatrix([[1, 2, 0], [2, -3, 5], [0, 5, 4]])
        expected = float_path(m)
        refuse_float_input(monkeypatch)
        assert bits(symmetric_eigenvalues(m)) == bits(expected)

    @pytest.mark.parametrize(
        "rows", [[[10**400]], [[0, 1, 10**400], [1, 0, 1], [10**400, 1, 0]]], ids=["1x1", "3x3"]
    )
    def test_beyond_float_range_refused_before_any_work(self, rows, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(spectra, "_run_classes", refuse)
        monkeypatch.setattr(spectra, "_tridiagonalize", refuse)
        with pytest.raises(NonFiniteError):
            symmetric_eigenvalues(IntMatrix(rows))

    def test_asymmetry_beyond_tolerance_refused(self):
        with pytest.raises(AsymmetryError):
            symmetric_eigenvalues(IntMatrix([[0, 1], [2, 0]]))
        with pytest.raises(AsymmetryError):
            symmetric_eigenvalues(IntMatrix([[0, 10**9], [10**9 + 1, 0]]))

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 10**11], [10**11 + 1, 0]],
            # a run of three twin rows beside an asymmetric pair
            [[0, 1, 1, 10**11], [1, 0, 1, 10**11], [1, 1, 0, 10**11], [10**11, 10**11, 10**11 + 1, 7]],
        ],
        ids=["2x2", "4x4-run"],
    )
    def test_asymmetry_within_tolerance_matches_float_rows(self, rows):
        # 1 <= SYMMETRY_TOL * 10^11: averaged as the float rows are
        m = IntMatrix(rows)
        assert bits(symmetric_eigenvalues(m)) == bits(float_path(m))

    @pytest.mark.parametrize(
        "rows, eigs",
        [([], []), ([[0]], [0.0]), ([[0] * 3] * 3, [0.0] * 3), ([[5]], [5.0]), ([[-3]], [-3.0])],
        ids=["order-0", "zero-1", "zero-3", "order-1", "order-1-negative"],
    )
    def test_zero_and_small_orders(self, rows, eigs, monkeypatch):
        m = IntMatrix(rows)
        expected = float_path(m)
        refuse_float_input(monkeypatch)
        got = symmetric_eigenvalues(m)
        assert bits(got) == bits(eigs) == bits(expected)

    def test_entries_of_2_to_the_53_take_the_float_path(self):
        # float() rounds 2^53 + 1 to 2^53, so these matrices are solved as
        # their rounded float rows: the int asymmetry is gone, and columns 0
        # and 1, which differ in row 2 as ints, become a run with b = -1
        m = IntMatrix([[0, 2**53], [2**53 + 1, 0]])
        assert symmetric_eigenvalues(m) == [2.0**53, -(2.0**53)]
        m = IntMatrix([[0, 1, 2**53], [1, 0, 2**53 + 1], [2**53, 2**53 + 1, 0]])
        seen = []
        find = spectra._run_classes

        def spy(rows):
            seen.append(find(rows))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_run_classes", spy)
            eigs = symmetric_eigenvalues(m)
        assert seen == [[(0, 2), (2, 3)]]
        assert spectra._run_classes(m.rows) == [(0, 1), (1, 2), (2, 3)]
        assert -1.0 in eigs
        assert bits(eigs) == bits(float_path(m))


class TestRootCounting:
    def test_visible_factorization(self):
        p = IntPoly.from_roots([1, 1, -2])
        assert positive_root_count(p) == 2

    def test_three_two_one_charpoly(self):
        full = charpoly_product(Partition([3, 2, 1])).expanded
        assert positive_root_count(full) == 2

    def test_two_part_charpoly(self):
        for n in range(2, 9):
            full = X_PLUS_1 ** (n - 1) * IntPoly([-(n - 1), 1])
            assert positive_root_count(full) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            positive_root_count(IntPoly([]))

    def test_non_real_rooted_rejected(self):
        with pytest.raises(ConsistencyError):
            positive_root_count(IntPoly([1, 0, 1]))

    def test_descartes_multiplicity(self):
        rng = random.Random(42)
        for _ in range(30):
            roots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 7))]
            p = IntPoly.from_roots(roots)
            assert descartes_sign_changes(p) == sum(1 for r in roots if r > 0)

    def test_roots_below(self):
        full = charpoly_product(Partition([2, 1, 1])).expanded
        assert roots_below(full, -1) == 1  # the simple root -sqrt(5)
        assert roots_below(charpoly_product(Partition([1, 1])).expanded, -1) == 0

    def test_roots_in_open_interval(self):
        p = IntPoly.from_roots([0, 1, 1, 2, 5])
        assert roots_in_open_interval(p, 0, 2) == 2
        assert roots_in_open_interval(p, 0, 1) == 0
        assert roots_in_open_interval(p, -1, 6) == 5

    def test_empty_interval_holds_no_root(self):
        assert roots_in_open_interval(IntPoly.from_roots([1]), 2, 0) == 0
        assert roots_in_open_interval(IntPoly.from_roots([1]), 1, 1) == 0
        assert roots_in_open_interval(IntPoly.from_roots([1, 1, 3]), 1, 1) == 0
        with pytest.raises(ZeroPolynomialError):
            roots_in_open_interval(IntPoly([]), 1, 1)

    def test_is_real_rooted(self):
        assert is_real_rooted(IntPoly.from_roots([3, -4, 0, 0]))
        assert not is_real_rooted(IntPoly([1, 0, 0, 0, 1]))

    @settings(max_examples=300, deadline=None)
    @given(
        roots=st.lists(st.integers(-6, 6), max_size=6),
        doubled=st.lists(st.integers(-6, 6), max_size=3),
        cofactor=st.lists(st.integers(-20, 20), min_size=1, max_size=5).filter(any),
    )
    def test_is_real_rooted_matches_gcd_count(self, roots, doubled, cofactor):
        # linear factors, squared factors, and a random cofactor of degree <= 4
        p = IntPoly.from_roots(roots + doubled * 2) * IntPoly(cofactor)
        gcd = reference_gcd(p, p.derivative())
        assert sturm_chain(p)[-1].degree == gcd.degree
        distinct = p.degree - gcd.degree
        assert is_real_rooted(p) == (sturm_real_roots(p) == distinct)

    @settings(max_examples=300, deadline=None)
    @given(
        roots=st.lists(st.integers(-6, 6), max_size=5),
        cofactor=st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(any),
    )
    def test_sturm_chain_matches_lead_power_prem(self, roots, cofactor):
        # the chain's remainders scaled by |lead| per step equal, once made
        # primitive, those scaled by lead^(deg f - deg g + 1) with a sign fix
        p = IntPoly.from_roots(roots) * IntPoly(cofactor)
        assert sturm_chain(p) == reference_chain(p)

    def test_is_real_rooted_on_seidel_polynomials(self):
        for n in range(1, 13):
            for p in partitions_of(n):
                full = charpoly_product(p).expanded
                distinct = full.degree - reference_gcd(full, full.derivative()).degree
                assert sturm_real_roots(full) == distinct, p
                assert is_real_rooted(full), p

    def test_sturm_random_integer_roots(self):
        rng = random.Random(43)
        for _ in range(25):
            roots = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
            p = IntPoly.from_roots(roots)
            assert sturm_real_roots(p) == len(set(roots))


class TestRootMultiplicity:
    def test_examples(self):
        p = X_PLUS_1 ** 3 * IntPoly([-2, 1])
        assert exact_root_multiplicity(p, -1) == 3
        assert exact_root_multiplicity(p, 2) == 1
        assert exact_root_multiplicity(p, 5) == 0

    def test_multipartite_cases(self):
        full = charpoly_product(Partition([3, 2, 1])).expanded
        assert exact_root_multiplicity(full, -1) == 3
        k5 = charpoly_product(Partition([1] * 5)).expanded
        assert exact_root_multiplicity(k5, -1) == 0


class TestSpectrumReport:
    def test_triangle(self):
        r = spectrum_report(Partition([1, 1, 1]))
        assert r.positive_roots == 2
        assert r.minus_one_multiplicity == 0
        assert r.least_eigenvalue == pytest.approx(-2.0, abs=1e-9)

    def test_three_two_one(self):
        r = spectrum_report(Partition([3, 2, 1]))
        assert r.positive_roots == 2
        assert r.minus_one_multiplicity == 3
        assert r.roots_below_minus_one == 1
        assert r.least_eigenvalue < -1

    def test_two_equal_parts(self):
        r = spectrum_report(Partition([4, 4]))
        assert r.positive_roots == 1
        assert r.minus_one_multiplicity == 7
        assert r.least_eigenvalue == pytest.approx(-1.0, abs=1e-9)
        assert r.bound_tight

    def test_consistency_sweep(self):
        for n in range(1, 13):
            for p in partitions_of(n):
                r = spectrum_report(p)
                assert r.charpoly == charpoly_product(p)
                assert len(r.eigenvalues) == p.n
                assert r.trace_error <= 1e-9
                assert r.square_sum_error <= 1e-6
                assert r.max_scaled_residual <= 1e-6
                assert all(within for (_, _, _, within) in r.interval_checks)

    def test_flags_match_jacobi_reference(self):
        # the report's flags read from the Jacobi reference's eigenvalues
        for n in range(1, 15):
            for p in partitions_of(n):
                r = spectrum_report(p)
                ref = reference_jacobi(seidel_matrix(complete_multipartite(p)).rows)
                assert r.bound_satisfied, p
                assert r.bound_tight == (abs(ref[-1] - r.bound.value) <= COMPARISON_TOL), p
                within = [w for (_, _, _, w) in r.interval_checks]
                assert all(within), p
                assert within == [
                    lo - COMPARISON_TOL <= e <= hi + COMPARISON_TOL
                    for e, (lo, hi) in zip(ref, r.structure.intervals)
                ], p

    def test_residual_counts_match_full_polynomial(self):
        # the report counts on the degree-k residual; the sweep holds
        # (3,3) and (1,1), whose residuals themselves vanish at -1
        extra = [[17, 16, 10, 8, 4, 4, 3, 2], [64]]
        sweep = [p for n in range(1, 17) for p in partitions_of(n)]
        for p in sweep + [Partition(parts) for parts in extra]:
            r = spectrum_report(p)
            full, residual = r.charpoly.expanded, r.charpoly.residual
            assert r.minus_one_multiplicity == exact_root_multiplicity(full, -1), p
            assert r.roots_below_minus_one == roots_below(full, -1), p
            assert r.positive_roots == positive_root_count(full), p
            assert is_real_rooted(residual) == is_real_rooted(full) is True, p
            if p.parts in ((3, 3), (1, 1)):
                assert exact_root_multiplicity(residual, -1) == 1, p

    @pytest.mark.parametrize("parts", [[10**6], [1] * 65])
    def test_order_cap_is_checked_before_any_work(self, parts, monkeypatch):
        def refuse(p):
            raise AssertionError(f"the polynomial of {p} was built")

        monkeypatch.setattr(spectra, "charpoly_coefficients", refuse)
        with pytest.raises(CapExceededError):
            spectrum_report(Partition(parts))

    def test_sturm_chain_only_on_the_residual(self, monkeypatch):
        degrees = []
        original = spectra.is_real_rooted

        def recorded(p):
            degrees.append(p.degree)
            return original(p)

        monkeypatch.setattr(spectra, "is_real_rooted", recorded)
        spectrum_report(Partition([17, 16, 10, 8, 4, 4, 3, 2]))
        assert degrees == [8]

    def test_json_schema(self):
        payload = spectrum_report(Partition([3, 2, 1])).to_json_dict()
        text = json.dumps(payload)
        assert json.loads(text)["-1_multiplicity"] == "3"
        assert payload["tolerances"]["eigen_convergence"] == "1e-12"
        assert payload["charpoly"]["coefficients"][0] == "19"
        assert all(isinstance(v, str) for v in payload["eigenvalues"])
