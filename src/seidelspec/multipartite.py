"""Closed forms for Seidel spectra of complete multipartite graphs.

For a complete multipartite graph on parts of sizes n_1 >= ... >= n_k the
Seidel characteristic polynomial is (x+1)^(n-k) times a degree-k residual,
computed here three independent ways: by clearing denominators in the
product identity, from the explicit coefficient formula over elementary
symmetric functions, and from the grouped formula over distinct part
sizes.  The module also provides the part quotient matrix, interlacing
intervals for the positive eigenvalues, and the Rayleigh upper bound on
the least eigenvalue.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import islice, repeat
from math import comb
from operator import add, index, lshift, mul
from typing import Iterable, Iterator, Sequence

from .errors import (
    ConsistencyError,
    DimensionError,
    EmptyPartitionError,
    InvalidPartitionError,
)
from .exactalg import IntMatrix, IntPoly, elementary_symmetric, sigma_l


def _excerpt(text: str) -> str:
    """repr of text, cut after 40 characters so an error stays short."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


class Partition:
    """Multiset of positive part sizes, stored non-increasing."""

    __slots__ = ("parts",)

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]) -> None:
        try:
            ps = tuple(sorted(map(index, parts), reverse=True))
        except TypeError as exc:
            raise InvalidPartitionError(f"parts must be integers: {exc}") from None
        if not ps:
            raise EmptyPartitionError("a partition needs at least one part")
        if ps[-1] < 1:
            raise InvalidPartitionError(f"parts must be >= 1, got {ps}")
        self.parts = ps

    @classmethod
    def _of_parts(cls, parts: tuple[int, ...]) -> "Partition":
        """``parts``, a non-empty non-increasing tuple of positive exact
        ints such as the partition walk yields, taken unchecked."""
        p = cls.__new__(cls)
        p.parts = parts
        return p

    @staticmethod
    def parse_groups(text: str) -> Iterator[tuple[int, int]]:
        """Validated (size, count) pairs of a ``parse`` argument, in the order
        written and one token at a time; nothing is expanded or stored, so a
        caller can stop at the first group that takes the order too far."""
        for match in re.finditer(r"(?:^|,)([^,]*)", text):
            token = match.group(1).strip()
            if not token:
                raise InvalidPartitionError(f"empty part in {_excerpt(text)}")
            # ASCII digit runs only: int() alone would also read "1_0", "+3", "٣"
            found = re.fullmatch(r"(?:([0-9]+)\s*\*\s*)?([0-9]+)", token)
            if found is None:
                raise InvalidPartitionError(f"bad part {_excerpt(token)}")
            try:
                count, size = int(found[1] or 1), int(found[2])
            except ValueError:  # more digits than int() converts
                raise InvalidPartitionError(f"bad part {_excerpt(token)}") from None
            if count < 1:
                raise InvalidPartitionError(
                    f"part multiplicity must be >= 1 in {_excerpt(token)}"
                )
            if size < 1:
                raise InvalidPartitionError(f"parts must be >= 1 in {_excerpt(token)}")
            yield size, count

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse ``"3,2,1"`` or grouped ``"2*3,1*2"`` (count*size) or a mix."""
        return cls(size for size, count in cls.parse_groups(text) for _ in range(count))

    @property
    def n(self) -> int:
        """Total number of vertices."""
        return sum(self.parts)

    @property
    def k(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def grouped(self) -> tuple[tuple[int, int], ...]:
        """Distinct sizes with multiplicities, sizes decreasing."""
        out: list[tuple[int, int]] = []
        for p in self.parts:
            if out and out[-1][0] == p:
                out[-1] = (p, out[-1][1] + 1)
            else:
                out.append((p, 1))
        return tuple(out)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __le__(self, other: "Partition") -> bool:
        return self.parts <= other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


def _linear(size: int) -> IntPoly:
    # the factor x + 1 - 2*size
    return IntPoly([1 - 2 * size, 1])


def _lane_bias(w: int, lanes: int) -> int:
    """2^(w-1) in each of ``lanes`` w-bit lanes.  Added to a packed integer
    whose lanes hold values in (-2^(w-1), 2^(w-1)), it leaves every lane in
    [0, 2^w), so no borrow or carry crosses a lane boundary; XOR with it
    then turns every lane into its value in w-bit two's complement."""
    return ((1 << w * lanes) - 1) // ((1 << w) - 1) << (w - 1)


def _read_lanes(blobs: list[bytes], words: int, top: str = "q") -> list[int]:
    """Every lane of ``blobs``, lowest first, blob after blob.

    Each blob is a packed integer written with ``to_bytes`` in native byte
    order, whole lanes of ``words`` 64-bit words each.  All blobs are
    joined into one buffer and read with one memoryview cast: the top word
    of each lane with format ``top`` ('q' for signed lanes in two's
    complement, 'Q' for unsigned ones), and, when a lane is wider than
    one word, each lower word as an unsigned 'Q', combined by Horner's
    rule from the top word down.  A big-endian blob puts its top word
    first: with the blobs and then all words reversed, the words run as
    on a little-endian host.  That big-endian branch has never run: the
    package's tests have only run on little-endian hosts.
    """
    step = 1
    if sys.byteorder == "big":
        blobs = blobs[::-1]
        step = -1
    buf = memoryview(b"".join(blobs))
    lanes = buf.cast(top)[::step][words - 1 :: words].tolist()
    if words > 1:
        low = buf.cast("Q")[::step]
        for i in reversed(range(words - 1)):
            lanes = list(map(add, map(lshift, lanes, repeat(64)), low[i::words].tolist()))
    return lanes


@lru_cache(maxsize=256)
def _ones_layout(w: int, length: int, e: int) -> tuple[range, int, int]:
    """(lane shifts, bias, packed (x+1)^e) for a product of length + e
    coefficients in w-bit lanes: the bias is ``_lane_bias`` of those lanes
    and the packed power is (2^w + 1)^e, (x+1)^e at x = 2^w."""
    shifts = range(0, (length + e) * w, w)
    return shifts, _lane_bias(w, length + e), ((1 << w) + 1) ** e


def _times_ones_powers(products: Iterable[tuple[IntPoly, int]]) -> list[tuple[int, ...]]:
    """The coefficients of p * (x+1)^e for every (p, e), each by Kronecker
    substitution, one big-integer product, and all read back together.

    p's coefficients c_i are packed as signed w-bit lanes, sum c_i 2^(w i),
    and multiplied by the packed power.  The product's coefficient
    q_j = sum_i c_i C(e, j - i) has |q_j| <= ||p||_1 C(e, floor(e/2)) = B,
    so for w > bit_length(B), |q_j| < 2^(w-1) and ``_lane_bias`` makes
    every lane q_j in w-bit two's complement.  B is reached by a constant
    p at j = floor(e/2), so no narrower lane holds every input; since
    C(e, floor(e/2)) <= 2^e, bit_length(B) is at most
    bit_length(||p||_1) + e.  The bound holds for any p, not only for a
    correct residual.

    Every lane of one call is the same whole number of 64-bit words, the
    most that any of its products needs (one word for every search class
    up to order 36), and all products are read by one ``_read_lanes``.
    """
    items = [(p.coeffs, e) for p, e in products]
    words = 1
    for cs, e in items:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if cs and e:
            bits = (sum(map(abs, cs)) * comb(e, e // 2)).bit_length() + 1
            words = max(words, -(-bits // 64))
    w = 64 * words
    order = sys.byteorder
    blobs: list[bytes] = []
    for cs, e in items:
        if cs and e:
            shifts, bias, power = _ones_layout(w, len(cs), e)
            packed = (sum(map(lshift, cs, shifts)) * power + bias) ^ bias
            blobs.append(packed.to_bytes(len(shifts) * 8 * words, order))
    read = iter(_read_lanes(blobs, words))
    return [tuple(islice(read, len(cs) + e)) if cs and e else cs for cs, e in items]


@dataclass(frozen=True)
class FactoredSeidelPoly:
    """A Seidel characteristic polynomial kept in factored form:
    (x+1)^ones_exponent * prod (x+1-2m)^e * residual, monic of full degree.
    ``linear_factors`` holds (part size m, exponent) pairs.  Nothing is
    multiplied out until ``expanded`` is read.
    """

    ones_exponent: int
    linear_factors: tuple[tuple[int, int], ...]
    residual: IntPoly

    @classmethod
    def assemble(
        cls,
        ones_exponent: int,
        linear_factors: Sequence[tuple[int, int]],
        residual: IntPoly,
        order: int,
    ) -> "FactoredSeidelPoly":
        """Check the factored form is monic of degree order, unexpanded.

        Every factor but the residual is monic and degrees add over the
        integers, so this is the check on the expanded product.
        """
        degree = ones_exponent + sum(e for _, e in linear_factors) + residual.degree
        if degree != order or not residual.is_monic():
            raise ConsistencyError(
                f"assembled polynomial has degree {degree}, expected monic of degree {order}"
            )
        return cls(ones_exponent, tuple(linear_factors), residual)

    @property
    def expanded(self) -> IntPoly:
        """The product, multiplied out on every read by
        ``expanded_coefficients``.  Not cached, so the thousands of classes
        a search holds keep only their residuals."""
        return IntPoly(expanded_coefficients([self])[0])

    def factored_str(self) -> str:
        pieces: list[str] = []
        if self.ones_exponent:
            e = f"^{self.ones_exponent}" if self.ones_exponent > 1 else ""
            pieces.append(f"(x+1){e}")
        for size, exp in self.linear_factors:
            e = f"^{exp}" if exp > 1 else ""
            pieces.append(f"({_linear(size).to_string()}){e}")
        if self.residual != IntPoly([1]) or not pieces:
            pieces.append(f"({self.residual.to_string()})")
        return " * ".join(pieces)


def expanded_coefficients(polys: Iterable[FactoredSeidelPoly]) -> list[tuple[int, ...]]:
    """The coefficients, constant first, of every polynomial multiplied
    out: each residual times its linear factors first, while it is short,
    then every (x+1)^ones_exponent in one ``_times_ones_powers`` call."""
    cofactors = []
    for f in polys:
        full = f.residual
        for size, exp in f.linear_factors:
            full = full * _linear(size) ** exp
        cofactors.append((full, f.ones_exponent))
    return _times_ones_powers(cofactors)


def quotient_matrix(p: Partition) -> IntMatrix:
    """Quotient of the Seidel matrix under the partition into parts.

    Entry (i,i) is n_i - 1 (vertices inside a part are non-adjacent, Seidel
    +1, zero diagonal); entry (i,j) is -n_j for i != j (all cross pairs
    adjacent, Seidel -1).  The partition into parts is equitable, so the
    quotient spectrum is a sub-multiset of the Seidel spectrum.
    """
    ns = p.parts
    k = p.k
    return IntMatrix._of_ints(
        tuple(tuple(ns[i] - 1 if i == j else -ns[j] for j in range(k)) for i in range(k))
    )


def _product_residual(parts: Sequence[int]) -> IntPoly:
    lins = [_linear(m) for m in parts]
    total = IntPoly([1])
    for lin in lins:
        total = total * lin
    acc = total
    for i, m in enumerate(parts):
        other = IntPoly([1])
        for j, lin in enumerate(lins):
            if j != i:
                other = other * lin
        acc = acc + other * m
    return acc


@cache
def residual_weights(k: int) -> tuple[tuple[int, ...], ...]:
    """The coefficient formula of the degree-k residual as a weight table.

    Row m holds the weights of sigma_0 .. sigma_m in the coefficient of
    x^(k-m): C(k,m) for sigma_0, then (-1)^(i-1) 2^(i-1) (i-2) C(k-i,m-i)
    for sigma_i.  Row m ends in the weight of sigma_m, which is zero only
    for m = 2, so sigma_2 drops out of every coefficient.  Column i, read
    down the rows, is c_i (x+1)^(k-i) with c_0 = 1 and
    c_i = (-2)^(i-1) (i-2): the residual is sum_i c_i sigma_i (x+1)^(k-i),
    which is how ``_sigma_residual`` computes it.  Built once per k.
    """
    cs = _column_weights(k)
    return tuple(
        tuple(c * comb(k - i, m - i) for i, c in enumerate(cs[: m + 1])) for m in range(k + 1)
    )


def _column_weights(k: int) -> list[int]:
    """c_0 .. c_k of ``residual_weights``: 1, then (-2)^(i-1) (i-2)."""
    return [1, *((-2) ** (i - 1) * (i - 2) for i in range(1, k + 1))]


def _residual_spread(k: int) -> tuple[int, ...]:
    """|c_i| C(k-i, floor((k-i)/2)) for i = 0..k: the most that a unit of
    sigma_i adds to the absolute value of any residual coefficient."""
    return tuple(abs(c) * comb(k - i, (k - i) // 2) for i, c in enumerate(_column_weights(k)))


def _residual_table(k: int, words: int) -> tuple[list[int], int]:
    """(c_i (2^v + 1)^(k-i) for i = 0..k, ``_lane_bias`` of k + 1 lanes)
    for v = 64 words: column i of ``residual_weights`` packed in v-bit
    lanes, (x+1)^(k-i) at x = 2^v."""
    v = 64 * words
    table = []
    power = 1
    for c in reversed(_column_weights(k)):
        table.append(c * power)
        power += power << v
    return table[::-1], _lane_bias(v, k + 1)


def _sigma_residuals(sigs: Sequence[Sequence[int]]) -> list[IntPoly]:
    """The degree-k residual of the parts whose elementary symmetric
    functions are sig = sigma_0 .. sigma_k (sigma_0 = 1, so it is monic),
    for every sig, each by one packed dot product and all read back
    together.

    The residual is sum_i c_i sigma_i (x+1)^(k-i) (``residual_weights``),
    so at x = 2^v it is the dot product of sig with ``_residual_table``.
    Its coefficient of x^j is q_j = sum_i c_i sigma_i C(k-i, j), and
    C(k-i, j) <= C(k-i, floor((k-i)/2)), so |q_j| <= B, the dot product of
    |sig| with ``_residual_spread(k)``.  For v > bit_length(B),
    |q_j| < 2^(v-1), so the packed q_j are lanes that ``_lane_bias`` turns
    into v-bit two's complement.  The bound holds for any sig, not only
    for the sigma of a partition.  Each residual's lanes are the fewest
    whole 64-bit words that hold bit_length(B) + 1 bits (one word for every
    search class up to order 31), and the residuals of each lane width are
    read by one ``_read_lanes``.  The spreads and tables are built once
    per degree and width within a call.
    """
    spreads = {k: _residual_spread(k) for k in {len(sig) - 1 for sig in sigs}}
    by_words: dict[int, list[int]] = {}
    for i, sig in enumerate(sigs):
        bound = sum(map(mul, map(abs, sig), spreads[len(sig) - 1]))
        by_words.setdefault(-(-(bound.bit_length() + 1) // 64), []).append(i)
    order = sys.byteorder
    residuals = [IntPoly()] * len(sigs)
    for words, picked in by_words.items():
        layouts = {k: _residual_table(k, words) for k in {len(sigs[i]) - 1 for i in picked}}
        blobs = []
        for i in picked:
            table, bias = layouts[len(sigs[i]) - 1]
            packed = (sum(map(mul, sigs[i], table)) + bias) ^ bias
            blobs.append(packed.to_bytes(len(table) * 8 * words, order))
        read = iter(_read_lanes(blobs, words))
        for i in picked:
            residuals[i] = IntPoly._of_ints(tuple(islice(read, len(sigs[i]))))
    return residuals


def _sigma_residual(sig: Sequence[int]) -> IntPoly:
    """The residual of one sig = sigma_0 .. sigma_k, by ``_sigma_residuals``."""
    return _sigma_residuals([sig])[0]


def _flat_residual(parts: Sequence[int]) -> IntPoly:
    return _sigma_residual(elementary_symmetric(parts))


def _grouped_residual(sizes: Sequence[int], mults: Sequence[int]) -> IntPoly:
    s = len(sizes)
    sig = elementary_symmetric(sizes)
    weight = [-2 * e for e in sig]
    for l in range(1, s + 1):
        sl = sigma_l(sizes, l)
        r = mults[l - 1]
        for i in range(s + 1):
            weight[i] += r * sl[i]
    out = [0] * (s + 1)
    for m in range(s + 1):
        c = comb(s, m)
        for i in range(1, m + 1):
            term = (1 << (i - 1)) * comb(s - i, m - i) * weight[i]
            c += term if (i - 1) % 2 == 0 else -term
        out[s - m] = c
    return IntPoly(out)


def charpoly_product(p: Partition) -> FactoredSeidelPoly:
    """Seidel characteristic polynomial via the cleared-denominator product.

    The degree-k residual is prod(x+1-2n_i) + sum_i n_i prod_{j!=i}(x+1-2n_j);
    the rational form with denominators is never evaluated, so coinciding
    eigenvalues cause no poles and everything stays exact.
    """
    residual = _product_residual(p.parts)
    return FactoredSeidelPoly.assemble(p.n - p.k, (), residual, p.n)


def charpoly_coefficients(p: Partition) -> FactoredSeidelPoly:
    """Same polynomial from the explicit coefficient formula.

    The residual coefficient of x^(k-m) is
    C(k,m) + sum_{i=1..m} (-1)^(i-1) 2^(i-1) (i-2) C(k-i,m-i) sigma_i,
    row m of ``residual_weights(k)`` applied to the elementary symmetric
    functions of the parts, all rows at once as the packed dot product of
    ``_sigma_residual``; the i=2 weight vanishes because of the factor
    (i-2), so sigma_2 never appears.
    """
    return FactoredSeidelPoly.assemble(p.n - p.k, (), _flat_residual(p.parts), p.n)


def charpoly_grouped_coefficients(p: Partition) -> FactoredSeidelPoly:
    """Same polynomial grouped by distinct part sizes.

    Each distinct size m with multiplicity r contributes a factor
    (x+1-2m)^(r-1); the remaining degree-s residual has coefficient of
    x^(s-m) equal to
    C(s,m) + sum_{i=1..m} (-1)^(i-1) 2^(i-1) C(s-i,m-i) w_i
    with w_i = sum_l r_l sigma_{l,i} - 2 sigma_i over the distinct sizes.
    """
    g = p.grouped()
    sizes = [s for s, _ in g]
    mults = [r for _, r in g]
    factors = tuple((s, r - 1) for s, r in g if r >= 2)
    residual = _grouped_residual(sizes, mults)
    return FactoredSeidelPoly.assemble(p.n - p.k, factors, residual, p.n)


# Each entry looks its function up when called, so a module attribute
# rebound by a tracer or a test sees the calls made through this table.
CLOSED_FORMS = {
    "product": lambda p: charpoly_product(p),
    "coeff": lambda p: charpoly_coefficients(p),
    "grouped": lambda p: charpoly_grouped_coefficients(p),
}


@dataclass(frozen=True)
class EigenvalueBound:
    """Upper bound on the least Seidel eigenvalue, with exact pieces.

    value = rational + sqrt_coefficient * sum(sqrt(r) for r in radicands).
    The float is accurate to about 1e-12 relative error; the exact pieces
    allow symbolic comparison when the radicands are perfect squares.
    """

    value: float
    rational: Fraction
    sqrt_coefficient: Fraction
    radicands: tuple[int, ...]


def least_eigenvalue_bound(p: Partition) -> EigenvalueBound:
    """Rayleigh upper bound n/k - 1 - (2/k) sum_{i<j} sqrt(n_i n_j)."""
    ns = p.parts
    k = p.k
    radicands = tuple(
        sorted(ns[i] * ns[j] for i in range(k) for j in range(i + 1, k))
    )
    rational = Fraction(p.n, k) - 1
    coef = Fraction(-2, k)
    value = p.n / k - 1.0 - (2.0 / k) * math.fsum(math.sqrt(r) for r in radicands)
    return EigenvalueBound(value, rational, coef, radicands)


def symmetrize_quotient(b: IntMatrix, p: Partition) -> list[list[float]]:
    """Similarity transform of the quotient by diag(1/sqrt(n_i)).

    Entry (i,j) becomes b_ij / n_j * sqrt(n_i n_j), which is b_ij
    sqrt(n_i / n_j).  The quotient of a symmetric matrix has b_ij n_i =
    b_ji n_j, so b_ij / n_j and b_ji / n_i are one rational, rounded once
    to one float, and n_i n_j is one exact integer: the result is
    symmetric bit for bit, with the same spectrum as the quotient.  For
    K_P the off-diagonal entries are -sqrt(n_i n_j).
    """
    ns = p.parts
    k = p.k
    if b.n != k:
        raise DimensionError(f"quotient has dimension {b.n}, partition has {k} parts")
    return [
        [b.rows[i][j] / ns[j] * math.sqrt(ns[i] * ns[j]) for j in range(k)]
        for i in range(k)
    ]


@dataclass(frozen=True)
class SpectralStructure:
    """Counts and interval bounds for the Seidel spectrum of a partition.

    ``intervals[i]`` is the closed range [2 n_{i+2} - 1, 2 n_{i+1} - 1]
    containing the (i+1)-th largest positive eigenvalue (parts sorted
    non-increasing).  For one or two parts all remaining eigenvalues equal
    -1; for more than two parts the least eigenvalue is simple and lies
    strictly below -1.
    """

    intervals: tuple[tuple[int, int], ...]
    positive_count: int
    minus_one_multiplicity: int
    least_is_simple_below_minus_one: bool


def eigenvalue_intervals(p: Partition) -> SpectralStructure:
    """Interlacing intervals and multiplicity structure for the partition."""
    ns = p.parts
    k = p.k
    n = p.n
    intervals = tuple((2 * ns[i + 1] - 1, 2 * ns[i] - 1) for i in range(k - 1))
    if k <= 2:
        # one part: spectrum of J - I; two parts: switching equivalent to it
        minus_one = n - 1
        positives = k - 1 if k == 2 else (1 if n >= 2 else 0)
    else:
        minus_one = n - k
        positives = k - 1
    return SpectralStructure(
        intervals=intervals,
        positive_count=positives,
        minus_one_multiplicity=minus_one,
        least_is_simple_below_minus_one=k > 2,
    )
