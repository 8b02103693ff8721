"""Exact integer polynomial and matrix algebra.

Coefficients and entries are Python ints, so everything in this module is
exact; no floating point is used anywhere here.  Values are immutable after
construction.
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
    agrees with the one before it in every row except those two columns'
    own rows.  In the Seidel matrix of K_P the runs are the parts, with
    adjacent parts of size 1 merged into one run.
    """
    n = len(rows)
    cols = list(zip(*rows))
    bounds = [0]
    for j in range(1, n):
        a, b = cols[j - 1], cols[j]
        if a[: j - 1] != b[: j - 1] or a[j + 1 :] != b[j + 1 :]:
            bounds.append(j)
    bounds.append(n)
    return list(zip(bounds, bounds[1:]))


# entries of the matrix that packed column runs must fold, n - 2 for each
# column that continues an exchangeable run, before the plan packs and sums
# them; a run that is not exchangeable folds nothing.  Below it planning costs
# more than the additions save: on a 2-vCPU x86 guest with Python 3.11,
# K_P below order 24 ran no faster with runs and K_P of order 64 in about
# 0.7 of the time.
_FOLD_MIN = 400

# the coefficient of an (index, coefficient) term, to filter out zeros
_nonzero = itemgetter(1)


def _weight(coefficients: Sequence[int]) -> int:
    """Additions that add up rows times these coefficients: one for each
    +-1, two for any other nonzero, which also costs a multiple."""
    nonzero = len(coefficients) - coefficients.count(0)
    return 2 * nonzero - coefficients.count(1) - coefficients.count(-1)


def _exchange_offset(rows: Sequence[Sequence[int]], lo: int, hi: int) -> int | None:
    """b where the column run lo..hi-1, of two or more columns, is
    exchangeable, else None.

    The run is exchangeable when its rows agree outside its own block and
    each holds one value v in the block off the diagonal and v + b on it,
    checked entry by entry.  Swapping any two of its columns together with
    their rows then fixes the matrix: the rows agree outside the block,
    the columns agree outside the block's rows (a column run), and inside
    the block the swap maps v to v and v + b to v + b.
    """
    top = rows[lo]
    v, d = top[lo + 1], top[lo]
    left, right = top[:lo], top[hi:]
    # a block row holds v in each lane but its diagonal, there too if b = 0
    count = hi - lo - (d != v)
    for i in range(lo, hi):
        row = rows[i]
        span = row[lo:hi]
        if span[i - lo] != d or span.count(v) != count or row[:lo] != left or row[hi:] != right:
            return None
    return d - v


def _row_program(rows: Sequence[Sequence[int]]) -> list:
    """The plan's program where nothing is packed: each row of A*M from
    row i's own nonzero entries, or from row i-1 of A*M plus
    (a_ij - a_(i-1)j) * M_j where the rows differ, if that costs fewer
    additions."""
    n = len(rows)
    program = []
    prev = None
    for row in rows:
        if prev is not None and 2 * sum(map(ne, row, prev)) < n - row.count(0):
            # register n + len(program) holds row i-1 of A*M
            program.append((n + len(program), tuple(filter(_nonzero, enumerate(map(sub, row, prev))))))
        else:
            program.append((n, tuple(filter(_nonzero, enumerate(row)))))
        prev = row
    return program


def _oracle_plan(
    rows: Sequence[Sequence[int]],
) -> tuple[list, list[tuple[int, int, int]]]:
    """(program, packed): how ``charpoly_oracle`` builds the rows of A*M
    from those of M.

    ``packed`` lists the exchangeable column runs (lo, hi, b)
    (``_exchange_offset``), each held as one row W_r; every other row of M
    is held in full, so a column run that is not exchangeable is planned
    column by column.  With f rows held in full, in order, and p runs
    packed, ``program`` is a list of instructions over registers:
    registers 0..f-1 hold the full rows, f + o the o-th packed run's W,
    register f + p holds 0 and f + p + 1 + o the o-th packed run's
    diagonal term.  Each instruction (start, terms) appends one register:
    register start plus a * register i over its terms (i, a), every
    register it names being appended before it.  The last f + p registers
    are the next full rows and W's, in register order: one instruction per
    full row and one per packed run.

    The plan's runs are the packed runs and every other column alone.
    Row i of A has one coefficient per run, its entry there, or the run's
    value v off the diagonal in a packed run's own rows.  The program
    first adds up each packed run's rows, n_r W_r + g_r I_r
    (``charpoly_oracle``), then combines each distinct key of coefficients
    once, sum_r(v_ir * run sum r), a column's sum being its row of M: it
    starts from the key combined before it where that is cheaper
    (``_weight``), else from a run sum it takes +1 times, else from 0.  A
    full row of A*M starts from its key's combination and adds nothing,
    and a packed run's adds b W_r.

    Run sums cost planning time, which only big-integer work saved over
    the call repays, so where packed runs fold fewer than ``_FOLD_MIN``
    entries of the matrix, n - 2 for each column that continues a run,
    nothing is packed and ``program`` is ``_row_program``.
    """
    n = len(rows)
    # (n - 2) * (n - 1) is the most that runs can fold, so orders below 22
    # are never searched for runs
    if (n - 2) * (n - 1) < _FOLD_MIN:
        return _row_program(rows), []
    runs = _column_runs(rows)
    packed = [
        (lo, hi, b) for lo, hi in runs if hi > lo + 1 and (b := _exchange_offset(rows, lo, hi)) is not None
    ]
    if (n - 2) * sum(hi - lo - 1 for lo, hi, _ in packed) < _FOLD_MIN:
        return _row_program(rows), []
    program: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    f = n - sum(hi - lo for lo, hi, _ in packed)
    width = f + len(packed)
    base = width + len(packed)
    packed_at = {lo: o for o, (lo, _, _) in enumerate(packed)}
    # (register, first row, terms past its key's combination) for each of
    # the plan's runs, in row order, and the register holding its sum
    units, sums = [], []
    held = 0
    for lo, hi in runs:
        o = packed_at.get(lo)
        if o is None:
            # a column alone sums to its row of M
            for i in range(lo, hi):
                units.append((held, i, ()))
                sums.append(held)
                held += 1
        else:
            b = packed[o][2]
            units.append((f + o, lo, ((f + o, b),) if b else ()))
            program.append((width + 1 + o, ((f + o, hi - lo),)))
            sums.append(base + len(program))
    starts = [i for _, i, _ in units]
    combos: dict[tuple[int, ...], int] = {}
    last = None
    rows_out = [None] * width
    for r, (x, i, fixes) in enumerate(units):
        key = list(map(rows[i].__getitem__, starts))
        if x >= f:
            # a packed run's rows hold v in its own columns
            key[r] = rows[i][i + 1]
        key = tuple(key)
        if key not in combos:
            if last is not None and _weight(step := list(map(sub, key, last))) < _weight(key):
                start, terms = combos[last], tuple(filter(_nonzero, zip(sums, step)))
            else:
                # the first run sum taken +1, else the zero register
                start = sums[key.index(1)] if 1 in key else width
                terms = tuple(t for t in filter(_nonzero, zip(sums, key)) if t != (start, 1))
            program.append((start, terms))
            combos[key] = base + len(program)
            last = key
        rows_out[x] = (combos[key], fixes)
    program += rows_out
    return program, packed


def charpoly_oracle(matrix) -> IntPoly:
    """Exact monic characteristic polynomial det(xI - M).

    Faddeev-LeVerrier recurrence: M_1 = I and, for k = 1..n, the
    coefficient c = -tr(A M_k) / k of x^(n-k) and M_(k+1) = A M_k + c I.
    For an integer matrix every division by k is exact over the integers,
    which is checked; the result is independent of any closed form
    elsewhere in this package.

    Each row of the work matrix M is packed into one Python int of n signed
    lanes, lane j holding entry j at bit offset s_j = w*j + 1, so row i of
    the product A*M is a sum of multiples of whole rows M_j.  Packing is
    linear, so every way of adding up the same multiples of rows gives the
    same integers; only the readout needs every entry to fit its lane, and
    w = ``_lane_width`` of the squared row norms, by Hadamard's inequality,
    is fixed before any arithmetic.  The plan, ``_oracle_plan``, is built
    once per call: where the matrix's exchangeable column runs fold enough
    entries, each step adds up each run's rows once, and rows with the
    same run coefficients share one combination of those sums; elsewhere
    row i of A*M is built from row i's nonzero entries, or from row i-1
    of A*M where that is cheaper.

    Each step runs the plan's instructions in one loop, each appending one
    register, then reads every row it holds once, after the loop.  A row
    held in full has c 2^(s_j) added at the start of each step, c being
    the coefficient found last, and its row of A*M is read at its own
    lane.  An exchangeable run r (``_exchange_offset``), of n_r = hi - lo
    >= 2 columns, is held as one row W_r and one offset g_r: row i of M is
    W_r + g_r 2^(s_i) for each i in the run.  The recurrence starts from
    W = 0 and c = 1, g_r taking the value 1 in the first step, which is
    M_1 = I, so the first pass of the plan builds A.

    (1) The rows W_i of the run stay equal.  Swapping two columns i, j of
    the run together with their rows, by a permutation matrix P, fixes A;
    P then commutes with A and with every M_k, a polynomial in A, so
    P M_k P = M_k and rows i and j of M_k agree outside lanes i and j.
    The recurrence keeps the W_i equal step by step: each starts at 0, and
    row i of A M_k is sum_r'(v_ir' S_r') + b M_k[i], S_r' the run sums,
    whose first term, the run's key combination, is the same for every i
    of the run, as its rows agree outside the block and hold v in it.
    With M_k[i] = W_r + g_r 2^(s_i), row i of A M_k is
    W'_r + b g_r 2^(s_i), W'_r being the key combination plus b W_r, built
    once for the run, and row i of M_(k+1) is W'_r + (b g_r + c) 2^(s_i).
    The run's sum is n_r W_r + g_r I_r, I_r the sum of 2^(s_i) over the
    run, built once per call.

    (2) Every lane of W'_r in the run's block holds one value.  For i != j
    in the run, lane j of W'_r is M_(k+1)[i][j], the identity term sitting
    on lane i alone.  Swaps of the run's indices fix M_(k+1) and carry any
    ordered pair of distinct indices to any other, so these entries are
    one value e; lane i of W'_r, lane i of the same row seen from another
    row of the run, is e too.

    (3) The run adds n_r times one rounded read to the trace.  The
    diagonal entry of row i of A M_k is lane i of W'_r plus b g_r, that is
    e + b g_r for every i of the run, so the run adds n_r (e + b g_r) to
    tr(A M_k).  W'_r holds no pending identity term: each of its lanes is
    an entry of M_(k+1) off the diagonal, so the readout below reads e at
    lane lo exactly, and the run adds n_r times that read and n_r b g_r.

    Readout of lane i of a row x = sum_j e_j 2^(s_j), held in full or a
    packed W'_r, needs no bias on the whole row.  Every e_j is a
    work-matrix entry, so |e_j| < 2^(w-1) = half (``_lane_width``); the
    lanes below lane i sum to L with |L| <= 2 (half - 1) (2^(wi) - 1) /
    (2^w - 1) < 2^(wi) = 2^(s_i - 1).  So x = H 2^(s_i) + L with H = e_i
    mod 2^w, and H = round(x / 2^(s_i)).  With y the w + 1 bits of x from
    bit s_i - 1, that is floor(x / 2^(s_i - 1)) mod 2^(w+1), the rounded
    quotient is floor((y + 1) / 2) mod 2^w.  Working mod 2^w, e_i + half =
    ((y + 1 + 2^w) >> 1) mod 2^w, and as e_i + half lies in [0, 2^w) the
    mask by 2^w - 1 gives it exactly.  The trace is the sum of these
    reads, each packed run's taken n_r times, plus sum_r n_r b g_r, less
    n * half.
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    n = m.n
    if n == 0:
        return IntPoly([1])
    rows = m.rows
    w = _lane_width([sum(map(mul, row, row)) for row in rows])
    shifts = range(1, n * w + 1, w)
    lows = range(0, n * w, w)
    lane = (1 << w) - 1
    window = (1 << (w + 1)) - 1
    rounding = (1 << w) + 1
    bias = n << (w - 1)
    program, packed = _oracle_plan(rows)
    # the lanes of the rows held in full, in register order: where each
    # takes c*I and where its row of A*M is read
    diagonal, readout = [*shifts], [*lows]
    for lo, hi, _ in reversed(packed):
        del diagonal[lo:hi], readout[lo:hi]
    f = len(diagonal)
    width = f + len(packed)
    # each packed run's b, n_r b and indicator I_r, and where its W is read
    runs = [(b, (hi - lo) * b, sum(1 << s for s in shifts[lo:hi])) for lo, hi, b in packed]
    reads = [(f + o, lows[lo], hi - lo) for o, (lo, hi, _) in enumerate(packed)]
    work = [0] * width
    c = 1
    gs = [0] * len(packed)
    coeffs = [1]
    for k in range(1, n + 1):
        if c:
            work[:f] = [row + (c << s) for row, s in zip(work, diagonal)]
        # the registers: the full rows and W's, 0, the packed runs' g I,
        # then one per instruction, the last width of them the next full
        # rows and W's; g becomes b g + c, and the run's trace takes n_r b g
        t = -bias
        work.append(0)
        if runs:
            for o, (b, nb, indicator) in enumerate(runs):
                g = gs[o] = b * gs[o] + c
                work.append(g * indicator)
                t += nb * g
        for i, terms in program:
            acc = work[i]
            for j, a in terms:
                if a == 1:
                    acc += work[j]
                elif a == -1:
                    acc -= work[j]
                else:
                    acc += a * work[j]
            work.append(acc)
        del work[:-width]
        for row, s in zip(work, readout):
            t += ((((row >> s) & window) + rounding) >> 1) & lane
        for x, s, count in reads:
            t += count * (((((work[x] >> s) & window) + rounding) >> 1) & lane)
        c, r = divmod(-t, k)
        if r:
            raise ConsistencyError("trace recurrence produced a non-integer coefficient")
        coeffs.append(c)
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

