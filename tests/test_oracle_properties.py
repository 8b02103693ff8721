"""Property tests of the packed-row charpoly_oracle.

The reference below is the plain Faddeev-LeVerrier recurrence on
list-of-lists matrices, one Python int per entry and n^3 multiply-adds per
step; it shares the recurrence with the oracle but none of its packing, so
a lane that overflows or is read back wrongly shows up as a difference.
"""

from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seidelspec import (
    Graph,
    IntPoly,
    Partition,
    charpoly_oracle,
    complete_multipartite,
    seidel_charpolys,
    seidel_matrix,
    switch,
)
from seidelspec.exactalg import _lane_width
from seidelspec.multipartite import CLOSED_FORMS

ENTRY_BOUND = 10**6
# the reference costs O(n^4) big-integer work; above this order the
# exact closed form alone checks the oracle
REFERENCE_MAX_N = 32


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _largest(work: list[list[int]]) -> int:
    return max((abs(x) for row in work for x in row), default=0)


def reference_run(rows: list[list[int]]) -> tuple[IntPoly, int]:
    """The characteristic polynomial and the largest magnitude held by any
    work matrix, A M_k or M_(k+1) = A M_k + c_k I."""
    n = len(rows)
    a = [list(r) for r in rows]
    coeffs = [1]
    work = [row[:] for row in a]
    largest = 0
    for k in range(1, n + 1):
        largest = max(largest, _largest(work))
        q, r = divmod(-sum(work[i][i] for i in range(n)), k)
        assert r == 0
        coeffs.append(q)
        if k == n:
            break
        for i in range(n):
            work[i][i] += q
        largest = max(largest, _largest(work))
        work = _matmul(a, work)
    return IntPoly(reversed(coeffs)), largest


def reference_charpoly(rows: list[list[int]]) -> IntPoly:
    return reference_run(rows)[0]


# small entries (0 and +-1 take their own branches in the kernel) mixed
# with entries anywhere in the full range
entries = st.one_of(
    st.sampled_from([0, 1, -1]), st.integers(-ENTRY_BOUND, ENTRY_BOUND)
)


@st.composite
def integer_matrices(draw, max_n: int = 12) -> list[list[int]]:
    n = draw(st.integers(0, max_n))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_random_integer_matrices_match_reference(rows):
    assert charpoly_oracle(rows) == reference_charpoly(rows)


def _scaled_ones(n: int, a: int, kind: str) -> tuple[list[list[int]], IntPoly]:
    """a*J, -a*J, a*(J-I), a*I or a times the cyclic shift, with its
    characteristic polynomial."""
    x = IntPoly([0, 1])
    if kind == "J":
        return [[a] * n for _ in range(n)], x ** (n - 1) * IntPoly([-a * n, 1])
    if kind == "-J":
        return [[-a] * n for _ in range(n)], x ** (n - 1) * IntPoly([a * n, 1])
    if kind == "I":
        return [[a * (i == j) for j in range(n)] for i in range(n)], IntPoly([-a, 1]) ** n
    if kind == "P":
        rows = [[a * (j == (i + 1) % n) for j in range(n)] for i in range(n)]
        return rows, x**n - a**n
    rows = [[a * (i != j) for j in range(n)] for i in range(n)]
    return rows, IntPoly([-a * (n - 1), 1]) * IntPoly([a, 1]) ** (n - 1)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 64),
    a=st.integers(1, ENTRY_BOUND),
    kind=st.sampled_from(["J", "-J", "J-I", "I", "P"]),
)
@example(n=64, a=ENTRY_BOUND, kind="J")
@example(n=64, a=ENTRY_BOUND, kind="-J")
@example(n=64, a=ENTRY_BOUND, kind="J-I")
@example(n=64, a=ENTRY_BOUND, kind="I")
@example(n=64, a=ENTRY_BOUND, kind="P")
@example(n=REFERENCE_MAX_N, a=ENTRY_BOUND, kind="J-I")
def test_matrices_at_the_lane_width_bound(n, a, kind):
    # every entry equals max|a_ij| and every row has the same Euclidean
    # norm, the row norms that fix the lane width, so the entries grow as
    # fast as the row norms allow; for a*I and a times a permutation each
    # row norm is a, n times below that of a*J
    rows, expected = _scaled_ones(n, a, kind)
    got = charpoly_oracle(rows)
    assert got == expected
    if n <= REFERENCE_MAX_N:
        assert got == reference_charpoly(rows)


@st.composite
def repeating_row_matrices(draw, max_n: int = 12) -> list[list[int]]:
    """Matrices whose rows repeat or nearly repeat.

    Either each row copies the previous one with a few entries edited (no
    edit gives an exact duplicate), or the matrix blows up a small random
    +-1 pattern over consecutive classes of rows, with a zero diagonal as
    in a Seidel matrix or without one.  Consecutive rows then differ in few
    entries, by 0, +-1, +-2 or anything in the full entry range.
    """
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        m = draw(st.integers(1, 4))
        pattern = draw(
            st.lists(
                st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m),
                min_size=m,
                max_size=m,
            )
        )
        cls = sorted(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        zero_diagonal = draw(st.booleans())
        return [
            [0 if zero_diagonal and i == j else pattern[cls[i]][cls[j]] for j in range(n)]
            for i in range(n)
        ]
    rows = [[draw(entries) for _ in range(n)]]
    for _ in range(n - 1):
        row = rows[-1][:]
        for _ in range(draw(st.integers(0, 3))):
            row[draw(st.integers(0, n - 1))] = draw(entries)
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(repeating_row_matrices())
def test_repeating_rows_match_reference(rows):
    assert charpoly_oracle(rows) == reference_charpoly(rows)


@settings(max_examples=150, deadline=None)
@given(st.one_of(integer_matrices(), repeating_row_matrices()).filter(len))
def test_work_matrices_fit_the_hadamard_lane(rows):
    # the oracle's lane width w holds every work-matrix value of the
    # unpacked recurrence, and is never wider than the infinity-norm bound
    # n * bit_length(rho) + n + 2
    n = len(rows)
    w = _lane_width([sum(x * x for x in row) for row in rows])
    assert reference_run(rows)[1].bit_length() < w - 1
    rho = max(sum(map(abs, row)) for row in rows)
    assert w <= n * rho.bit_length() + n + 2


def test_lane_widths_of_seidel_matrices():
    # order 64 rows of squared norm 63 give 203-bit oracle lanes
    assert _lane_width([63] * 64) == 203


def sylvester_hadamard(n: int) -> list[list[int]]:
    """The Sylvester-Hadamard matrix of order n, a power of two."""
    rows = [[1]]
    while len(rows) < n:
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return rows


def paley_conference(q: int) -> list[list[int]]:
    """The symmetric conference matrix of order q + 1 for a prime q = 1 mod 4:
    a zero diagonal, +-1 elsewhere and C^2 = qI, so a Seidel matrix."""
    squares = {x * x % q for x in range(1, q)}
    chi = [0] + [1 if x in squares else -1 for x in range(1, q)]
    return [[0] + [1] * q] + [[1] + [chi[(j - i) % q] for j in range(q)] for i in range(q)]


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
def test_sylvester_hadamard_attains_the_bound(n):
    # |det H| = n^(n/2) is the product of the row norms, Hadamard's
    # inequality with equality, and H^2 = nI with trace 0 for n >= 2
    expected = IntPoly([-1, 1]) if n == 1 else IntPoly([-n, 0, 1]) ** (n // 2)
    assert charpoly_oracle(sylvester_hadamard(n)) == expected


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37, 41, 53, 61])
def test_paley_conference_matrices(q):
    # S^2 = (n - 1)I with trace 0: the Seidel matrix of a graph at the
    # lane width's tight case, through the oracle and the batched kernel
    rows = paley_conference(q)
    n = q + 1
    expected = IntPoly([-q, 0, 1]) ** (n // 2)
    assert charpoly_oracle(rows) == expected
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] == -1])
    assert seidel_matrix(g).rows == tuple(map(tuple, rows))
    assert seidel_charpolys([g]) == [expected]


@st.composite
def partitions_up_to_64(draw) -> Partition:
    n = draw(st.integers(1, 64))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=9))) if n > 1 else []
    return Partition([b - a for a, b in zip([0] + cuts, cuts + [n])])


@settings(max_examples=8, deadline=None)
@given(partitions_up_to_64())
@example(Partition([1] * 64))
def test_order_64_complete_multipartite_matches_closed_form(p):
    oracle = charpoly_oracle(seidel_matrix(complete_multipartite(p)))
    for name, form in CLOSED_FORMS.items():
        assert form(p).expanded == oracle, name


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_switching_and_relabeling_keep_the_polynomial(data):
    # S(switch(G, U)) = D S(G) D with D = diag(+-1) and relabeling
    # conjugates by a permutation matrix: both are similarities
    n = data.draw(st.integers(0, 16))
    g = Graph.from_mask(n, data.draw(st.integers(0, (1 << comb(n, 2)) - 1)))
    row = data.draw(st.integers(0, (1 << n) - 1))
    perm = data.draw(st.permutations(range(n)))
    switched = switch(g, [v for v in range(n) if row >> v & 1])
    poly = charpoly_oracle(seidel_matrix(g))
    assert charpoly_oracle(seidel_matrix(switched)) == poly
    assert charpoly_oracle(seidel_matrix(g.relabel(perm))) == poly
    assert charpoly_oracle(seidel_matrix(switched.relabel(perm))) == poly
