"""Exact integer polynomial and matrix algebra.

Coefficients and entries are Python ints, so everything in this module is
exact; no floating point is used anywhere here.  Values are immutable after
construction.  The run finder (``_run_classes``) only compares entries,
and ``spectra.symmetric_eigenvalues`` runs it on float rows as well.
"""

from __future__ import annotations

from collections import Counter
from math import comb, isqrt
from operator import index, itemgetter, mul, ne, sub
from typing import Iterable, Iterator, Sequence

from .errors import (
    ConsistencyError,
    DimensionError,
    ExactDivisionError,
)


class IntPoly:
    """Dense univariate polynomial over the integers.

    ``coeffs[i]`` is the coefficient of x^i.  Trailing zeros are stripped on
    construction, so the zero polynomial has ``coeffs == ()`` and every
    nonzero polynomial has a nonzero leading coefficient.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _of_ints(cls, coeffs: tuple[int, ...]) -> "IntPoly":
        """``coeffs``, exact ints ending nonzero, taken unchecked."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "IntPoly":
        """The monic polynomial with the given integer roots (with multiplicity)."""
        p = cls([1])
        for r in roots:
            p = p * cls([-int(r), 1])
        return p

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntPoly([other])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly('{self.to_string()}')"

    def _coerce(self, other) -> "IntPoly | None":
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly([other])
        return None

    def __add__(self, other) -> "IntPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "IntPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "IntPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "IntPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if self.is_zero() or q.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(q.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(q.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPoly":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = IntPoly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def divexact(self, other) -> "IntPoly":
        """Exact quotient over the integers.

        Raises ExactDivisionError unless ``other`` divides ``self`` exactly
        in Z[x] (zero remainder, integer quotient).
        """
        d = self._coerce(other)
        if d is None:
            raise TypeError(f"cannot divide by {other!r}")
        if d.is_zero():
            raise ExactDivisionError("division by the zero polynomial")
        if self.is_zero():
            return IntPoly()
        if self.degree < d.degree:
            raise ExactDivisionError(f"{d!r} does not divide {self!r}")
        rem = list(self.coeffs)
        dc = d.coeffs
        lead = dc[-1]
        qlen = len(rem) - len(dc) + 1
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + len(dc) - 1]
            if c == 0:
                continue
            t, r = divmod(c, lead)
            if r:
                raise ExactDivisionError(f"{d!r} does not divide {self!r}")
            quot[i] = t
            for j, dcj in enumerate(dc):
                rem[i + j] -= t * dcj
        if any(rem):
            raise ExactDivisionError(f"{d!r} does not divide {self!r}")
        return IntPoly(quot)

    def taylor(self, c: int) -> Iterator[int]:
        """Coefficients of p(x + c), constant first, generated lazily.

        The j-th is the remainder of the (j+1)-th synthetic division by
        x - c, so a caller that stops early pays only for what it read.
        Since p(x + 0) = p, ``taylor(0)`` yields p's own coefficients.
        """
        if not c:
            yield from self.coeffs
            return
        desc = self.coeffs[::-1]
        while desc:
            acc = 0
            quot = []
            for a in desc:
                acc = acc * c + a
                quot.append(acc)
            yield quot.pop()
            desc = quot

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner's rule; works for int, float, Fraction, IntPoly."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_string(self) -> str:
        """Human form like ``x^3-3x^2-9x+19``."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}x" + (f"^{i}" if i > 1 else "")
            parts.append(sign + body)
        return "".join(parts)


class IntMatrix:
    """Square matrix of Python ints, immutable after construction."""

    __slots__ = ("n", "rows")

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        rs = tuple(tuple(map(index, row)) for row in rows)
        for row in rs:
            if len(row) != len(rs):
                raise DimensionError(
                    f"matrix must be square, got row of length {len(row)} in a {len(rs)}-row matrix"
                )
        self.n = len(rs)
        self.rows = rs

    @classmethod
    def _of_ints(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """The matrix of square ``rows`` that package code built as tuples
        of exact ints, taken without checking each entry."""
        m = cls.__new__(cls)
        m.n = len(rows)
        m.rows = rows
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of_ints(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def _lane_width(squares: Sequence[int]) -> int:
    """Bits that hold every entry of every Faddeev-LeVerrier work matrix of
    an integer matrix whose rows have squared Euclidean norms ``squares``
    as a signed lane.

    Let h_i = ceil(sqrt(s_i)) >= ||row i|| and E = max_m e_m(h).  By
    Hadamard's inequality an m x m minor is at most the product of its
    rows' norms, each at most the norm of the full row, so
    |c_m| <= e_m(h), c_m being a signed sum of the principal m-minors.
    The work matrix M_k is the coefficient of x^(n-k) in adj(xI - A);
    each of its entries is a signed sum of (k-1)-minors of A with
    pairwise distinct row sets, so it is at most e_(k-1)(h).  Every entry
    of M_k or of A M_k = M_(k+1) - c_k I is then at most 2E < 2^(w-1) for
    w = bit_length(E) + 2.
    Since h_i <= sum_j |a_ij| <= rho, the infinity norm, e_m(h) <=
    C(n,m) rho^m and w never exceeds n * bit_length(rho) + n + 2 for n >= 1.
    The e_m(h) are the coefficients of prod_i (1 + h_i t), multiplied out
    as one binomial row (1 + h t)^c per squared norm that c rows share.
    """
    e = [1]
    for s, c in Counter(squares).items():
        # e times (1 + h t)^c, whose t^j coefficient is C(c, j) h^j
        h = isqrt(s - 1) + 1 if s else 0
        power = [comb(c, j) * h**j for j in range(c + 1)]
        product = [0] * (len(e) + c)
        for j, y in enumerate(power):
            for i, x in enumerate(e, j):
                product[i] += x * y
        e = product
    return max(e).bit_length() + 2


def _column_runs(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The column runs [lo, hi) of a square matrix, in order.

    A run is a maximal stretch of consecutive columns in which each column
    has the diagonal entry of the one before it and agrees with it in
    every row except those two columns' own rows.  In the Seidel matrix of
    K_P the runs are the parts, with adjacent parts of size 1 merged into
    one run.  Every exchangeable run has one diagonal value, so the
    diagonal entries are compared first, and the columns only where two
    adjacent diagonal entries are equal: a matrix without such a pair has
    only runs of one column, found in n - 1 comparisons.  The entries may be
    ints or floats, -0.0 and 0.0 comparing equal.
    """
    n = len(rows)
    cols = None
    bounds = [0]
    for j in range(1, n):
        if rows[j][j] == rows[j - 1][j - 1]:
            if cols is None:
                cols = list(zip(*rows))
            a, b = cols[j - 1], cols[j]
            if a[: j - 1] == b[: j - 1] and a[j + 1 :] == b[j + 1 :]:
                continue
        bounds.append(j)
    bounds.append(n)
    return list(zip(bounds, bounds[1:]))


def _exchange_offset(rows: Sequence[Sequence[int]], lo: int, hi: int) -> int | None:
    """b where the column run lo..hi-1, of two or more columns, is
    exchangeable, else None.

    The run is exchangeable when its rows agree outside its own block and
    each holds one value v in the block off the diagonal, checked entry by
    entry; on the diagonal a column run holds one value, v + b.  Swapping
    any two of its columns together with their rows then fixes the
    matrix: the rows agree outside the block, the columns agree outside
    the block's rows (a column run), and inside the block the swap maps v
    to v and v + b to v + b.
    """
    top = rows[lo]
    v, d = top[lo + 1], top[lo]
    left, right = top[:lo], top[hi:]
    # a block row holds v in each lane but its diagonal, there too if b = 0
    count = hi - lo - (d != v)
    for i in range(lo, hi):
        row = rows[i]
        span = row[lo:hi]
        if span.count(v) != count or row[:lo] != left or row[hi:] != right:
            return None
    return d - v


# the coefficient of an (index, coefficient) term, to filter out zeros
_nonzero = itemgetter(1)


def _row_program(rows: Sequence[Sequence[int]]) -> list:
    """How ``charpoly_oracle`` builds the rows of A*M from those of M, as
    one (chained, terms) per row: row i of A*M is the sum of a * M_j over
    its terms (j, a), added to 0, or, if chained, to row i-1 of A*M.  Row
    i is chained, with the terms (a_ij - a_(i-1)j) where the rows differ,
    if that costs fewer additions than its own nonzero entries."""
    n = len(rows)
    program = []
    prev = None
    for row in rows:
        if prev is not None and 2 * sum(map(ne, row, prev)) < n - row.count(0):
            program.append((True, tuple(filter(_nonzero, enumerate(map(sub, row, prev))))))
        else:
            program.append((False, tuple(filter(_nonzero, enumerate(row)))))
        prev = row
    return program


def _run_classes(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The classes [lo, hi) of a square matrix's run quotient, in order.

    Each column run of two or more columns that ``_exchange_offset``
    accepts is one class, and every other column is a class of its own.
    ``charpoly_oracle`` and ``spectra.symmetric_eigenvalues`` both reduce
    by these classes.
    """
    runs = _column_runs(rows)
    if len(runs) == len(rows):
        # every run is one column, a class as it stands
        return runs
    classes: list[tuple[int, int]] = []
    for lo, hi in runs:
        if hi > lo + 1 and _exchange_offset(rows, lo, hi) is not None:
            classes.append((lo, hi))
        else:
            classes += [(j, j + 1) for j in range(lo, hi)]
    return classes


def _run_quotient(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """(B, roots): the quotient of a square matrix by its ``_run_classes``,
    and b_r taken n_r - 1 times for each class r of n_r columns.

    B[r][s] is the sum of row lo_r over the columns of class s, lo_r the
    first index of class r, and b_r is d_r - v_r, its diagonal entry less
    the value off its diagonal in its block.
    """
    classes = _run_classes(rows)
    roots = [rows[lo][lo] - rows[lo][lo + 1] for lo, hi in classes for _ in range(lo + 1, hi)]
    quotient = [[sum(rows[lo][a:z]) for a, z in classes] for lo, _ in classes]
    return quotient, roots


def charpoly_oracle(matrix) -> IntPoly:
    """Exact monic characteristic polynomial det(xI - A).

    With the quotient B of A by its exchangeable column runs and their
    offsets b_r (``_run_quotient``),

        det(xI - A) = det(xI - B) * prod_r (x - b_r)^(n_r - 1),

    for any integer matrix A, symmetric or not.

    (1) The classes form an equitable partition.  The rows of a run r agree
    outside its block and each sums to n_r v_r + b_r inside it, v_r being
    its value off the diagonal, so A 1_s = sum_r B[r][s] 1_r for the
    indicator 1_s of each class s: span{1_s} is invariant under A, which
    acts on it as B.

    (2) The columns of a run agree outside the run's rows, the column-run
    condition, and inside its block column i holds v_r + b_r in row i and
    v_r in the others.  So A(e_i - e_j) = b_r (e_i - e_j) for i, j in one
    run, and the n_r - 1 differences e_i - e_lo span an invariant subspace
    on which A is b_r I.

    (3) A vector in both subspaces is constant on each class, zero on each
    class of one column and sums to zero on each run, so it is zero; their
    dimensions, k and the sum of n_r - 1, add to n, so they span Q^n and
    the characteristic polynomial factors as above.

    det(xI - B), B of order k, comes from the Faddeev-LeVerrier recurrence:
    M_1 = I and, for m = 1..k, the coefficient c = -tr(B M_m) / m of
    x^(k-m) and M_(m+1) = B M_m + c I.  For an integer matrix every
    division by m is exact over the integers, which is checked; the result
    is independent of any closed form elsewhere in this package.

    Each row of the work matrix M is packed into one Python int of k signed
    lanes, lane j holding entry j at bit offset s_j = w*j + 1, so row i of
    B*M is a sum of multiples of whole rows M_j, built as ``_row_program``
    says; each step adds c 2^(s_i) to row i first.  Packing is linear, so
    every way of adding up the same multiples of rows gives the same
    integers; only the readout needs every entry to fit its lane, and w =
    ``_lane_width`` of the squared row norms, by Hadamard's inequality, is
    fixed before any arithmetic.

    Readout of lane i of a row x = sum_j e_j 2^(s_j) needs no bias on the
    whole row.  Every e_j is a work-matrix entry, so |e_j| < 2^(w-1) = half
    (``_lane_width``); the lanes below lane i sum to L with |L| <= 2 (half
    - 1) (2^(wi) - 1) / (2^w - 1) < 2^(wi) = 2^(s_i - 1).  So x = H 2^(s_i)
    + L with H = e_i mod 2^w, and H = round(x / 2^(s_i)).  With y the w + 1
    bits of x from bit s_i - 1, that is floor(x / 2^(s_i - 1)) mod
    2^(w+1), the rounded quotient is floor((y + 1) / 2) mod 2^w.  Working
    mod 2^w, e_i + half = ((y + 1 + 2^w) >> 1) mod 2^w, and as e_i + half
    lies in [0, 2^w) the mask by 2^w - 1 gives it exactly.  The trace is
    the sum of these reads less k * half.
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    rows, roots = _run_quotient(m.rows)
    k = len(rows)
    w = _lane_width([sum(map(mul, row, row)) for row in rows])
    shifts = range(1, k * w + 1, w)
    lows = range(0, k * w, w)
    lane = (1 << w) - 1
    window = (1 << (w + 1)) - 1
    rounding = (1 << w) + 1
    bias = k << (w - 1)
    program = _row_program(rows)
    work = [0] * k
    c = 1
    coeffs = [1]
    for step in range(1, k + 1):
        if c:
            work = [row + (c << s) for row, s in zip(work, shifts)]
        product = []
        acc = 0
        for chained, terms in program:
            if not chained:
                acc = 0
            for j, a in terms:
                if a == 1:
                    acc += work[j]
                elif a == -1:
                    acc -= work[j]
                else:
                    acc += a * work[j]
            product.append(acc)
        work = product
        t = -bias
        for row, s in zip(work, lows):
            t += ((((row >> s) & window) + rounding) >> 1) & lane
        c, r = divmod(-t, step)
        if r:
            raise ConsistencyError("trace recurrence produced a non-integer coefficient")
        coeffs.append(c)
    poly = IntPoly._of_ints(tuple(reversed(coeffs)))
    for b, e in Counter(roots).items():
        # (x - b)^e, whose x^j coefficient is C(e, j) (-b)^(e - j)
        poly = poly * IntPoly._of_ints(tuple(comb(e, j) * (-b) ** (e - j) for j in range(e + 1)))
    return poly


def elementary_symmetric(values: Sequence[int]) -> list[int]:
    """All elementary symmetric functions [e_0, ..., e_k] of ``values``.

    Computed with the product recurrence for prod(1 + v t); e_0 is 1 even
    for empty input.
    """
    sig = [1]
    for v in values:
        sig.append(0)
        for i in range(len(sig) - 1, 0, -1):
            sig[i] += v * sig[i - 1]
    return sig


def sigma_l(values: Sequence[int], l: int) -> list[int]:
    """Symmetric functions restricted to terms containing ``values[l-1]``.

    ``l`` is 1-based.  Entry i (for i >= 1) is values[l-1] times the
    elementary symmetric function of degree i-1 over the other values;
    entry 0 is 0 by convention.  The returned list has len(values)+1
    entries.
    """
    if not 1 <= l <= len(values):
        raise IndexError(f"l={l} out of range for {len(values)} values")
    v = values[l - 1]
    rest = list(values[: l - 1]) + list(values[l:])
    return [0] + [v * e for e in elementary_symmetric(rest)]

