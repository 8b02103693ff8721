"""Exact integer polynomial and matrix algebra.

Coefficients and entries are Python ints, so everything in this module is
exact; no floating point is used anywhere here.  Values are immutable after
construction.
"""

from __future__ import annotations

from math import isqrt
from operator import index, itemgetter, lshift, mul, ne, sub
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
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

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
    pairwise distinct row sets, so it is at most e_(k-1)(h).  The packed
    rows hold M_k or A M_k = M_(k+1) - c_k I, so every held value is at
    most 2E < 2^(w-1) for w = bit_length(E) + 2.
    Since h_i <= sum_j |a_ij| <= rho, the infinity norm, e_m(h) <=
    C(n,m) rho^m and w never exceeds n * bit_length(rho) + n + 2 for n >= 1.
    """
    norms = [isqrt(s - 1) + 1 if s else 0 for s in squares]
    return max(elementary_symmetric(norms)).bit_length() + 2


def charpoly_oracle(matrix) -> IntPoly:
    """Exact monic characteristic polynomial det(xI - M).

    Faddeev-LeVerrier recurrence.  For an integer matrix every division by
    the step index is exact over the integers, which is checked; the result
    is independent of any closed form elsewhere in this package.

    Each row of the work matrix is packed into one Python int of n signed
    lanes, lane j holding entry j at bit offset w*j, so row i of the product
    A*W is a sum of whole rows W_j, adding c*I adds ``c << (w*i)`` to row i,
    and the trace is read back by biased lane extraction.  Row i of A*W is
    built from zero as sum(a_ij * W_j) over the nonzeros of row i, or from
    row i-1 of A*W plus sum((a_ij - a_(i-1)j) * W_j) over the positions where
    rows i and i-1 of A differ.  The plan, fixed once per call, takes the
    second route when twice the number of differences is below the number
    of nonzeros, since a difference can cost a scalar multiple of W_j where
    the entry itself is +-1 and costs one addition.  Rows that repeat up to
    a few entries, as twins' rows do, then cost a few additions.  Packing
    is linear, so both routes give the same integers.

    Packed arithmetic is exact; only the extraction needs every entry to
    fit its lane, and w = ``_lane_width`` of the squared row norms, by
    Hadamard's inequality, is fixed before any arithmetic.
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    n = m.n
    if n == 0:
        return IntPoly([1])
    rows = m.rows
    w = _lane_width([sum(map(mul, row, row)) for row in rows])
    shifts = range(0, n * w, w)
    half = 1 << (w - 1)
    lane = (1 << w) - 1
    # adding half to every lane makes each lane nonnegative, so no borrow
    # crosses a lane boundary when one is shifted down and masked off
    bias = sum(half << s for s in shifts)
    # plan[i] = (from_previous, the (j, coefficient of W_j) pairs with a
    # nonzero coefficient)
    value = itemgetter(1)
    plan = []
    prev = None
    for row in rows:
        if prev is not None and 2 * sum(map(ne, row, prev)) < n - row.count(0):
            plan.append((True, list(filter(value, enumerate(map(sub, row, prev))))))
        else:
            plan.append((False, list(filter(value, enumerate(row)))))
        prev = row
    work = [sum(map(lshift, row, shifts)) for row in rows]
    coeffs = [1]
    for k in range(1, n + 1):
        t = sum((((row + bias) >> s) & lane) - half for row, s in zip(work, shifts))
        q, r = divmod(-t, k)
        if r:
            raise ConsistencyError("trace recurrence produced a non-integer coefficient")
        coeffs.append(q)
        if k == n:
            break
        if q:
            work = [row + (q << s) for row, s in zip(work, shifts)]
        product = []
        acc = 0
        for from_previous, row_terms in plan:
            if not from_previous:
                acc = 0
            for j, a in row_terms:
                if a == 1:
                    acc += work[j]
                elif a == -1:
                    acc -= work[j]
                else:
                    acc += a * work[j]
            product.append(acc)
        work = product
    return IntPoly(reversed(coeffs))


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

