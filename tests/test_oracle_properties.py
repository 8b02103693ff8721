"""Property tests of charpoly_oracle: its run quotient and its packed rows.

The reference below is the plain Faddeev-LeVerrier recurrence on
list-of-lists matrices, one Python int per entry and n^3 multiply-adds per
step; it shares the recurrence with the oracle but none of its packing and
none of its reduction by exchangeable column runs, so a lane that
overflows or is read back wrongly, or a quotient or factor built wrongly,
shows up as a difference.

Tests parametrised by ``path`` feed the oracle each matrix twice: as built
("runs"), so that its column runs are consecutive and the oracle reduces
the exchangeable ones to their quotient, and under a seeded relabelling
("default"), which scatters the runs so that the oracle runs its
recurrence on the whole matrix, or on all of it but the few twins that the
relabelling leaves adjacent.
"""

import random
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
from seidelspec.exactalg import _column_runs, _exchange_offset, _lane_width, _run_quotient
from seidelspec.multipartite import CLOSED_FORMS, quotient_matrix

ENTRY_BOUND = 10**6
# the reference costs O(n^4) big-integer work; above this order the
# exact closed form alone checks the oracle
REFERENCE_MAX_N = 32
RELABEL_SEED = 2019


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


def relabelled(rows) -> list[list[int]]:
    """P A P^T for a seeded random permutation P: the same characteristic
    polynomial, with the twins of a run scattered over the matrix."""
    order = list(range(len(rows)))
    random.Random(RELABEL_SEED).shuffle(order)
    return [[rows[i][j] for j in order] for i in order]


def laid_out(path: str, rows) -> list[list[int]]:
    """The matrix as built on the "runs" path, relabelled on "default"."""
    return [list(row) for row in rows] if path == "runs" else relabelled(rows)


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
    # row norm is a, n times below that of a*J.  a*J, -a*J, a*(J-I) and a*I
    # are one exchangeable run, reduced to order 1; the cyclic shift has
    # no run and goes through the whole recurrence
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


@st.composite
def column_run_matrices(draw, max_n: int = 12) -> tuple[list[int], list[list[int]]]:
    """A matrix built run by run, with the bounds of the runs it was built
    from.

    In the columns lo..hi-1 of a run, a row outside the run holds one value
    throughout; a row inside it holds one value below its diagonal, its own
    diagonal entry and one value above it, each drawn on its own, so the
    matrix is not symmetric.  Values are 0, +-1 or anything in the full
    entry range.  Adjacent runs merge where the draws happen to agree.
    """
    n = draw(st.integers(1, max_n))
    cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    rows = [[0] * n for _ in range(n)]
    for lo, hi in zip(bounds, bounds[1:]):
        for i, row in enumerate(rows):
            if lo <= i < hi:
                below, diagonal, above = draw(entries), draw(entries), draw(entries)
                row[lo:hi] = [below] * (i - lo) + [diagonal] + [above] * (hi - i - 1)
            else:
                row[lo:hi] = [draw(entries)] * (hi - lo)
    return bounds, rows


# built as one run of all n columns, but the diagonal varies, so each
# column is a run of its own; row 2 holds -1 below it and 4 above it
WHOLE_RUN = [
    [7, 0, 0, 0],
    [3, 1, 0, 0],
    [-1, -1, 0, 4],
    [1, 1, 1, -2],
]
# runs of 2 at column 0 and at column n - 1 around a run of 1
EDGE_RUNS = [
    [0, 1, 5, -1, -1],
    [1, 0, 5, -1, -1],
    [2, 2, 0, 0, 0],
    [-3, -3, 1, 0, 1],
    [-3, -3, 1, -1, 1],
]


def _exchangeable(rows) -> list[tuple[int, int, int]]:
    """The column runs of two or more columns that ``_exchange_offset``
    accepts, as (lo, hi, b): the classes the oracle's quotient merges."""
    return [
        (lo, hi, b)
        for lo, hi in _column_runs(rows)
        if hi > lo + 1 and (b := _exchange_offset(rows, lo, hi)) is not None
    ]


@st.composite
def partitions_up_to(draw, max_n: int) -> Partition:
    n = draw(st.integers(1, max_n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=9))) if n > 1 else []
    return Partition([b - a for a, b in zip([0] + cuts, cuts + [n])])


@pytest.mark.parametrize("path", ["runs", "default"])
@settings(max_examples=150, deadline=None)
@given(column_run_matrices())
@example(([0, 1], [[5]]))
@example(([0, 2], [[0, 1], [-1, 0]]))
@example(([0, 2], [[2, -1], [0, 10**6]]))
@example(([0, 4], WHOLE_RUN))
@example(([0, 2, 3, 5], EDGE_RUNS))
def test_column_run_matrices_match_reference(path, case):
    # as built, each exchangeable run is one class of the quotient and a
    # run that is not exchangeable is one class per column
    bounds, rows = case
    starts = {lo for lo, _ in _column_runs(rows)}
    # a run found starts where the diagonal changes, and otherwise never
    # inside a run built
    changes = {j for j in range(1, len(rows)) if rows[j][j] != rows[j - 1][j - 1]}
    assert changes <= starts <= set(bounds) | changes
    assert charpoly_oracle(laid_out(path, rows)) == reference_charpoly(rows)


def test_column_runs_above_the_fold_match_reference():
    # three runs of 8 at order 24, each with one diagonal value, none
    # exchangeable, as each row holds its own values below and above its
    # diagonal: no run is reduced, and the quotient is the matrix itself
    bounds = [0, 8, 16, 24]
    rng = random.Random(28)
    matrix = [[0] * 24 for _ in range(24)]
    for lo, hi in zip(bounds, bounds[1:]):
        diagonal = rng.choice([0, 1, -1, 2, -5])
        for i, row in enumerate(matrix):
            if lo <= i < hi:
                below, above = (rng.choice([0, 1, -1, 2, -5]) for _ in range(2))
                row[lo:hi] = [below] * (i - lo) + [diagonal] + [above] * (hi - i - 1)
            else:
                row[lo:hi] = [rng.choice([1, -1, 3])] * (hi - lo)
    assert _column_runs(matrix) == [(0, 8), (8, 16), (16, 24)]
    assert _exchangeable(matrix) == []
    assert _run_quotient(matrix) == (matrix, [])
    assert charpoly_oracle(matrix) == reference_charpoly(matrix)


@settings(max_examples=60, deadline=None)
@given(partitions_up_to(12))
def test_multipartite_and_quotient_through_runs(p):
    # K_P reduces by its parts, and the quotient, whose runs are stretches
    # of equal parts, by those
    forms = CLOSED_FORMS["product"](p)
    assert charpoly_oracle(seidel_matrix(complete_multipartite(p))) == forms.expanded
    assert charpoly_oracle(quotient_matrix(p)) == forms.residual


def test_runs_of_complete_multipartite_seidel_matrices():
    # a part is a run, and adjacent parts of size 1 merge into one
    rows = seidel_matrix(complete_multipartite(Partition([3, 2, 1, 1]))).rows
    assert _column_runs(rows) == [(0, 3), (3, 5), (5, 7)]


# K_P whose four column runs are all exchangeable, its merged singletons
# with diagonal correction +1
EDITED_PARTS = ([4, 3, 2, 1, 1], [9, 8, 5, 1, 1])
# the exchangeable runs after each edit in _edit_runs, as (index of the
# run, b)
EXCHANGEABLE_AFTER = {
    "chained": [(0, -3), (1, -3), (2, -3), (3, 3)],
    "off-diagonal": [(1, -1), (2, -1), (3, 1)],
    "mixed-diagonal": [(0, -1), (1, -1), (2, -1)],
    "equal-rows": [(0, -1), (1, 0), (2, -1), (3, 1)],
    "rows-differ": [(1, -1), (2, -1), (3, 1)],
}


def _edit_runs(kind: str, rows: list[list[int]], runs: list[tuple[int, int]]) -> list[list[int]]:
    """A K_P Seidel matrix edited so that a run that _column_runs merges
    is not exchangeable, or in "equal-rows" is exchangeable with b = 0.
    Every edit keeps the runs but "mixed-diagonal", which splits the last
    run at a diagonal entry.  A run that is not exchangeable stays one
    class per column."""
    if kind == "chained":
        # times 3, with no entry +-1; every run is still exchangeable
        return [[3 * x for x in row] for row in rows]
    if kind == "off-diagonal":
        # row 2 holds 1 below its diagonal and 2 above it in the first part
        # (two 1s and one 2 in a part of 4): columns 1, 2 and 3 are a chain of
        # pairwise twins, each agreeing with the next outside their own two
        # rows, with A[2][1] != A[2][3]
        lo, hi = runs[0]
        rows[2][3:hi] = [2] * (hi - 3)
    elif kind == "mixed-diagonal":
        # the second of the two merged singletons has diagonal entry 5, the
        # first 0: a run has one diagonal value, so the run splits in two
        lo, hi = runs[-1]
        rows[lo + 1][lo + 1] = 5
    elif kind == "rows-differ":
        # row 2 holds +1 against the whole second part, the first part's
        # other rows -1: its rows differ outside the run, and the matrix is
        # no longer symmetric
        lo, hi = runs[1]
        rows[2][lo:hi] = [1] * (hi - lo)
    else:
        # +1 on the second part's diagonal makes its rows equal, with b = 0
        lo, hi = runs[1]
        for i in range(lo, hi):
            rows[i][i] = 1
    return rows


@pytest.mark.parametrize("kind", ["chained", "off-diagonal", "mixed-diagonal", "equal-rows", "rows-differ"])
@pytest.mark.parametrize("path", ["runs", "default"])
def test_runs_refused_the_carry_match_reference(path, kind):
    for parts in EDITED_PARTS:
        rows = [list(r) for r in seidel_matrix(complete_multipartite(Partition(parts))).rows]
        runs = _column_runs(rows)
        rows = _edit_runs(kind, rows, runs)
        if kind == "mixed-diagonal":
            lo, hi = runs[-1]
            runs = [*runs[:-1], (lo, lo + 1), (lo + 1, hi)]
        assert _column_runs(rows) == runs
        assert _exchangeable(rows) == [(*runs[o], b) for o, b in EXCHANGEABLE_AFTER[kind]]
        assert charpoly_oracle(laid_out(path, rows)) == reference_charpoly(rows)


def _read_by_chained_rows(n1: int, n2: int) -> list[list[int]]:
    """Runs (0, 2), (2, 2 + n1) and (2 + n1, 2 + n1 + n2).  The rows of the
    middle run hold 2 throughout it, diagonal included, and differ only in
    the value they hold in the first run's columns, so the middle run is
    not exchangeable and each of its rows after the first differs from
    the row before it only there; the first run is exchangeable with
    diagonal correction -1, and so is the last, a Seidel block."""
    n = 2 + n1 + n2
    rows = [[0, 1] + [5] * n1 + [-3] * n2, [1, 0] + [5] * n1 + [-3] * n2]
    rows += [[i + 2] * 2 + [2] * n1 + [7] * n2 for i in range(2, 2 + n1)]
    rows += [[-4] * 2 + [6] * n1 + [int(i != j) for j in range(2 + n1, n)] for i in range(2 + n1, n)]
    return rows


@pytest.mark.parametrize("path", ["runs", "default"])
def test_run_read_by_chained_rows_is_refused(path):
    # the middle run stays one class per column, and the quotient's rows
    # for it differ from the row before only in the first run's column
    for n1, n2 in [(3, 3), (11, 11)]:
        rows = _read_by_chained_rows(n1, n2)
        n = len(rows)
        assert _column_runs(rows) == [(0, 2), (2, 2 + n1), (2 + n1, n)]
        assert _exchangeable(rows) == [(0, 2, -1), (2 + n1, n, -1)]
        assert len(_run_quotient(rows)[0]) == 2 + n1
        assert charpoly_oracle(laid_out(path, rows)) == reference_charpoly(rows)


@pytest.mark.parametrize(
    "parts", [[24, 23, 1], [1] * 40, [6, 5, 1], [1] * 10], ids=["24,23,1", "1*40", "6,5,1", "1*10"]
)
def test_carried_runs_beside_one_column_runs_match_reference(parts):
    # a reduced run next to a one-column run, and one reduced run with
    # diagonal correction +1, as built and relabelled
    rows = seidel_matrix(complete_multipartite(Partition(parts))).rows
    expected = reference_charpoly(rows)
    for path in ("runs", "default"):
        assert charpoly_oracle(laid_out(path, rows)) == expected


@pytest.mark.parametrize("parts", ["16*4", "2,62*1", "4*16", "32*2"])
def test_order_64_packed_runs_match_reference(parts):
    # every run reduced: sixteen of 4, one of 2 beside 62 merged
    # singletons (b = +1), four of 16, thirty-two of 2; relabelled, the
    # whole order-64 recurrence
    rows = seidel_matrix(complete_multipartite(Partition.parse(parts))).rows
    expected = reference_charpoly(rows)
    assert [(lo, hi) for lo, hi, _ in _exchangeable(rows)] == _column_runs(rows)
    for path in ("runs", "default"):
        assert charpoly_oracle(laid_out(path, rows)) == expected


@st.composite
def twin_blow_ups(draw, min_n: int = 22, max_n: int = 40) -> tuple[list[int], list[list[int]]]:
    """A random integer base matrix B with every vertex blown up into a
    block of twins, with the bounds of the blocks.

    Block r, of n_r >= 1 columns, holds B[r][s] against block s, and v_r
    off its diagonal and d_r on it inside itself; B need not be symmetric.
    Entries are 0, +-1, 2 or anything in the full entry range, so adjacent
    blocks often merge into one column run, which need not be
    exchangeable.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, n))
    bounds = [0, *sorted(rng.sample(range(1, n), k - 1)), n]

    def entry() -> int:
        return rng.choice([0, 1, -1, 2]) if rng.random() < 0.7 else rng.randint(-ENTRY_BOUND, ENTRY_BOUND)

    base = [[entry() for _ in range(k)] for _ in range(k)]
    inner = [(entry(), entry()) for _ in range(k)]
    block = [r for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])) for _ in range(lo, hi)]
    rows = [
        [inner[r][i == j] if r == s else base[r][s] for j, s in enumerate(block)]
        for i, r in enumerate(block)
    ]
    return bounds, rows


@pytest.mark.parametrize("path", ["runs", "default"])
@settings(max_examples=15, deadline=None)
@given(twin_blow_ups())
def test_twin_blow_ups_match_reference(path, case):
    # a block that is a whole column run is exchangeable, so it is one
    # class of the quotient
    bounds, rows = case
    blocks = {(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo + 1}
    assert blocks & set(_column_runs(rows)) <= {(lo, hi) for lo, hi, _ in _exchangeable(rows)}
    assert charpoly_oracle(laid_out(path, rows)) == reference_charpoly(rows)


@st.composite
def integer_blow_ups(draw, max_k: int = 6) -> list[list[int]]:
    """A random integer core C of order k, not symmetric, with vertex r
    blown up into a class of 1 to 5 consecutive twins.

    Class r holds C[r][s] against class s and, inside itself, C[r][r] off
    the diagonal and C[r][r] + b_r on it, b_r = 0 included.  If drawn, one
    entry anywhere then takes a new value, which can break a run.
    """
    k = draw(st.integers(1, max_k))
    sizes = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    core = [[draw(entries) for _ in range(k)] for _ in range(k)]
    offsets = [draw(st.one_of(st.just(0), entries)) for _ in range(k)]
    block = [r for r, size in enumerate(sizes) for _ in range(size)]
    rows = [[core[r][s] + (i == j) * offsets[r] for j, s in enumerate(block)] for i, r in enumerate(block)]
    if draw(st.booleans()):
        n = len(rows)
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(entries)
    return rows


@settings(max_examples=150, deadline=None)
@given(integer_blow_ups())
def test_integer_blow_ups_match_reference(rows):
    assert charpoly_oracle(rows) == reference_charpoly(rows)


# runs (0, 3) with v = -1, b = 2 and (3, 5) with v = 5, b = -3 beside a
# column of its own; the core is not symmetric
TWO_OFFSETS = [
    [1, -1, -1, 4, 4, 7],
    [-1, 1, -1, 4, 4, 7],
    [-1, -1, 1, 4, 4, 7],
    [0, 0, 0, 2, 5, -2],
    [0, 0, 0, 5, 2, -2],
    [3, 3, 3, 1, 1, 6],
]
# a column run (0, 2) whose rows hold 1 and 2 off the diagonal in it, so
# _exchange_offset refuses it
REFUSED_RUN = [[0, 1, 5], [2, 0, 5], [3, 3, 4]]


@pytest.mark.parametrize(
    "rows, quotient, roots",
    [
        ([], [], []),
        ([[3]], [[3]], []),
        ([[0, 1], [1, 0]], [[1]], [-1]),
        ([[4, 4], [4, 4]], [[8]], [0]),
        ([[2, 5], [7, 2]], [[2, 5], [7, 2]], []),
        (REFUSED_RUN, REFUSED_RUN, []),
        (TWO_OFFSETS, [[-1, 8, 7], [0, 7, -2], [9, 2, 6]], [2, 2, -3]),
    ],
    ids=["order-0", "order-1", "order-2-run", "order-2-b0", "order-2-refused", "refused", "two-offsets"],
)
def test_run_quotient_cases(rows, quotient, roots):
    assert _run_quotient(rows) == (quotient, roots)
    expected = reference_charpoly(rows)
    assert reference_charpoly(quotient) * IntPoly.from_roots(roots) == expected
    assert charpoly_oracle(rows) == expected


def test_complete_multipartite_reduces_to_its_runs():
    # each part of two or more vertices is one class with b = -1, equal
    # adjacent sizes kept apart, and the three singletons one class with
    # b = +1
    p = Partition([19, 15, 4, 4, 3, 1, 1, 1])
    rows = seidel_matrix(complete_multipartite(p)).rows
    quotient, roots = _run_quotient(rows)
    assert len(quotient) == 6 and sorted(roots) == [-1] * 40 + [1] * 2
    assert charpoly_oracle(rows) == CLOSED_FORMS["product"](p).expanded


@st.composite
def twin_class_graphs(draw, min_n: int = 22, max_n: int = 64) -> Graph:
    """A random graph of order min_n..max_n, of random edge density, either
    as drawn or with each vertex of a random base graph blown up into a
    class of consecutive twins, pairwise adjacent or pairwise not."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_n, max_n))
    density = rng.random()
    if draw(st.booleans()):
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density])
    k = rng.randint(1, n)
    bounds = [0, *sorted(rng.sample(range(1, n), k - 1)), n]
    block = [r for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])) for _ in range(lo, hi)]
    base = {(r, s) for r in range(k) for s in range(r + 1, k) if rng.random() < density}
    clique = [rng.random() < 0.5 for _ in range(k)]
    return Graph(
        n,
        [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (block[i], block[j]) in base or (block[i] == block[j] and clique[block[i]])
        ],
    )


@pytest.mark.parametrize("path", ["runs", "default"])
@settings(max_examples=40, deadline=None)
@given(twin_class_graphs(), st.lists(st.integers(1, 4), min_size=3, max_size=64).map(Partition))
def test_package_matrices_have_only_exchangeable_runs(path, g, p):
    # in a symmetric matrix with a constant diagonal, run columns j-1, j and
    # j+1 give S[j-1][j] = S[j-1][j+1] = S[j][j+1], so every column run is
    # exchangeable; so is every run of a quotient with k >= 3, a stretch of
    # equal parts.  Every run of two or more columns is then reduced.  The
    # Seidel matrix is checked against the reference up to its order, and
    # past it against the batched kernel, which reduces nothing
    rows, quotient = seidel_matrix(g).rows, quotient_matrix(p).rows
    for matrix in (rows, quotient):
        runs = [(lo, hi) for lo, hi in _column_runs(matrix) if hi > lo + 1]
        assert all(_exchange_offset(matrix, lo, hi) is not None for lo, hi in runs)
    expected = reference_charpoly(rows) if g.n <= REFERENCE_MAX_N else seidel_charpolys([g])[0]
    assert charpoly_oracle(laid_out(path, rows)) == expected
    assert charpoly_oracle(laid_out(path, quotient)) == CLOSED_FORMS["product"](p).residual


@pytest.mark.parametrize("path", ["runs", "default"])
@pytest.mark.parametrize(
    "rows", [[], [[0]], [[1]], [[-7]], [[ENTRY_BOUND]]], ids=["empty", "0", "1", "-7", "bound"]
)
def test_orders_zero_and_one(path, rows):
    assert charpoly_oracle(laid_out(path, rows)) == reference_charpoly(rows)


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


@pytest.mark.parametrize(
    "rows, expected, carried",
    [
        pytest.param(
            sylvester_hadamard(n),
            IntPoly([-1, 1]) if n == 1 else IntPoly([-n, 0, 1]) ** (n // 2),
            [(1, 3, -2)] if n == 4 else [],
            id=f"H{n}",
        )
        for n in (1, 2, 4, 8, 16, 32, 64)
    ]
    + [
        pytest.param(paley_conference(q), IntPoly([-q, 0, 1]) ** ((q + 1) // 2), [], id=f"paley{q + 1}")
        for q in (5, 13, 17, 29, 61)
    ],
)
def test_lane_bound_matrices_through_runs(rows, expected, carried):
    # Hadamard's inequality holds with equality, so the work matrices fill
    # their lanes; H_4 reduces its run of columns 1-2 (diagonal correction
    # -2) to order 3, and no other matrix here has a run to reduce
    assert _exchangeable(rows) == carried
    got = charpoly_oracle(rows)
    assert got == expected
    if len(rows) <= REFERENCE_MAX_N:
        assert got == reference_charpoly(rows)


@settings(max_examples=8, deadline=None)
@given(partitions_up_to(64), st.randoms(use_true_random=False))
@example(Partition([1] * 64), random.Random(0))
def test_order_64_complete_multipartite_matches_closed_form(p, rng):
    # as built, the oracle reduces K_P by its parts; relabelled, the twins
    # are scattered and the whole recurrence runs
    g = complete_multipartite(p)
    perm = list(range(p.n))
    rng.shuffle(perm)
    oracle = charpoly_oracle(seidel_matrix(g))
    assert charpoly_oracle(seidel_matrix(g.relabel(perm))) == oracle
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
