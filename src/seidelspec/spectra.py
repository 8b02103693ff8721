"""Numeric eigenvalues, exact root counting, and spectrum reports.

The exact side (root counts, multiplicities) is authoritative; the
numeric companion is a Householder tridiagonalisation followed by
implicit-shift QL, and every report cross-checks the two views.
Tolerances are fixed here: 1e-12 relative for QL deflation, 1e-8 for
exact/numeric comparisons, 1e-6 for scaled polynomial residuals.  The
tridiagonalisation skips a row whose off-diagonal 1-norm on the scaled
matrix is at most EIGEN_CONVERGENCE instead of reflecting it; by Weyl's
inequality all the skips together move no eigenvalue by more than
(n - 2) * EIGEN_CONVERGENCE times the scale.
Before either step the matrix is reduced by the exchangeable runs that
``charpoly_oracle`` reduces by (``exactalg._run_classes``): a run of n_r
twin rows gives d_r - v_r, n_r - 1 times, and only the symmetric core of
one row and column per run is reduced, so the Seidel matrix of K_P is
solved as a core of at most k rows (adjacent singleton parts make one
run) beside -1 with multiplicity n - k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, starmap
from operator import eq, mul
from struct import Struct
from typing import Sequence

from .errors import (
    AsymmetryError,
    ConsistencyError,
    ConvergenceError,
    DimensionError,
    NonFiniteError,
    TheoremViolationError,
    ZeroPolynomialError,
)
from .exactalg import IntMatrix, IntPoly, _run_classes
from .graphs import check_graph_order, complete_multipartite, seidel_matrix
from .multipartite import (
    EigenvalueBound,
    FactoredSeidelPoly,
    Partition,
    SpectralStructure,
    charpoly_coefficients,
    eigenvalue_intervals,
    least_eigenvalue_bound,
    quotient_matrix,
    symmetrize_quotient,
)

EIGEN_CONVERGENCE = 1e-12
COMPARISON_TOL = 1e-8
RESIDUAL_TOL = 1e-6
SYMMETRY_TOL = 1e-10
_MAX_QL_ITERATIONS = 30  # per eigenvalue, as in EISPACK tql1


def _as_float_rows(m) -> list[list[float]]:
    try:
        if isinstance(m, IntMatrix):
            return [list(map(float, row)) for row in m.rows]
        rows = [list(map(float, row)) for row in m]
    except OverflowError as exc:
        raise NonFiniteError(f"matrix entry outside the float range: {exc}") from exc
    for row in rows:
        if len(row) != len(rows):
            raise DimensionError(f"matrix must be square, got row of length {len(row)}")
    return rows


def _bitwise_symmetric(a: list[list[float]], pack) -> bool:
    """True iff every row of the non-empty square a equals its column
    byte for byte; pack(*row) is the bytes of a row, and map(pack, *a)
    packs the columns, lazily, so the first differing row ends it."""
    return all(map(eq, starmap(pack, a), map(pack, *a)))


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Diagonal d and subdiagonal e (e[i] couples i - 1 and i, e[0] = 0).

    Householder reduction of the symmetric rows a, last row first
    (EISPACK tred2 without accumulating the transformations).  Step i
    reflects the leading i x i block and rebuilds its rows at length i,
    so every dot product is one fsum over two whole rows.  a must be
    exactly symmetric, bit for bit, as symmetric_eigenvalues makes it.

    Row i counts as already reduced when the 1-norm of its off-diagonal
    part, row[:i], is at most EIGEN_CONVERGENCE: e[i] keeps row[i - 1],
    row[:i - 1] is dropped and the leading block is left as it is.  The
    dropped part v is a symmetric perturbation e_i v^T + v e_i^T of the
    current (orthogonally similar) matrix, whose eigenvalues are
    +-||v||_2 <= ||v||_1 <= EIGEN_CONVERGENCE, so by Weyl's inequality one
    skip moves no eigenvalue by more than EIGEN_CONVERGENCE, and the n - 2
    steps that can skip move none by more than (n - 2) * EIGEN_CONVERGENCE.
    symmetric_eigenvalues scales the largest entry of its matrix A into
    [0.5, 1) and hands over the core of A's runs, whose entries each sum
    up to n_r scaled entries of A, so they reach up to N times that range,
    N the order of A.  The bound stays absolute: (n - 2) *
    EIGEN_CONVERGENCE * 2^shift on the caller's matrix, the same scale as
    _tql1's deflation.  A matrix near rank r skips every row left after
    about r reflections, as roundoff; a dense matrix skips none.
    """
    n = len(a)
    d = [0.0] * n
    e = [0.0] * n
    for i in range(n - 1, 1, -1):
        row = a[i]
        d[i] = row[i]
        scale = math.fsum(map(abs, row[:i]))
        if scale <= EIGEN_CONVERGENCE:
            e[i] = row[i - 1]
            continue
        u = [v / scale for v in row[:i]]
        h = math.fsum(map(mul, u, u))
        f = u[-1]
        g = -math.copysign(math.sqrt(h), f)
        e[i] = scale * g
        h -= f * g
        u[-1] = f - g
        # P = I - u u^T / h; P A P = A - u q^T - q u^T, row by row
        p = [math.fsum(map(mul, a[j], u)) / h for j in range(i)]
        half = math.fsum(map(mul, u, p)) / (2.0 * h)
        q = [pj - half * uj for pj, uj in zip(p, u)]
        for j in range(i):
            uj, qj = u[j], q[j]
            a[j] = [v - uj * qk - qj * uk for v, qk, uk in zip(a[j], q, u)]
    # the leading 2 x 2 block is tridiagonal as it stands
    if n > 1:
        d[1], e[1] = a[1][1], a[1][0]
    d[0] = a[0][0]
    return d, e


def _tql1(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal (d, e), by implicit-shift QL.

    EISPACK tql1: e[m] is deflated once |e[m]| <= EIGEN_CONVERGENCE *
    (|d[m]| + |d[m+1]| + 1).  The caller scales the largest entry of its
    matrix A into [0.5, 1) and passes the reduced core of A's runs, whose
    entries reach up to N times that range (N the order of A) and whose
    eigenvalues are among A's, so |d[m]| <= ||A||.  The 1 is at most
    twice the largest entry of A: it lets a coupling between two zero
    diagonal entries deflate (the QL shift cannot pass through it), and a
    deflation still moves an eigenvalue by at most 4 * EIGEN_CONVERGENCE
    * ||A||; the rows that _tridiagonalize skips as already reduced add
    at most (n - 2) * EIGEN_CONVERGENCE on the same scale (the proof is
    in its docstring).
    Each eigenvalue gets at most _MAX_QL_ITERATIONS QL steps.  d is
    overwritten and returned.
    """
    n = len(d)
    e = e[1:] + [0.0]
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > EIGEN_CONVERGENCE * (
                abs(d[m]) + abs(d[m + 1]) + 1.0
            ):
                m += 1
            if m == l:
                break
            if iterations == _MAX_QL_ITERATIONS:
                raise ConvergenceError(
                    f"eigenvalue {l}: no QL convergence in {_MAX_QL_ITERATIONS} iterations"
                )
            iterations += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # underflow: e[i] is zero, split the block and start over
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def symmetric_eigenvalues(m) -> list[float]:
    """Eigenvalues of a real symmetric matrix, sorted descending.

    Householder tridiagonalisation, then implicit-shift QL, in a fixed
    order, so results are deterministic.  The matrix is first divided by
    the smallest power of two above its largest absolute entry (exact in
    binary) and the eigenvalues are multiplied back, so finite input
    cannot overflow.  Non-finite entries raise NonFiniteError before any
    work, and so does an eigenvalue beyond the float range.  The largest
    |a_ij - a_ji| may be at most SYMMETRY_TOL times the largest absolute
    entry, else AsymmetryError, so the verdict does not depend on scale.

    Then the scaled matrix A, now bit-for-bit symmetric, is split along
    the classes of ``exactalg._run_classes``, the exchangeable runs that
    ``charpoly_oracle`` reduces by.  A run r of n_r rows [lo, hi) holds d_r
    on its diagonal and v_r off it inside its block, and its rows agree
    outside the block; A is symmetric, so its columns do too, and for lo <
    i < hi, A(e_i - e_lo) = (d_r - v_r)(e_i - e_lo).  So span{e_i - e_lo}
    is an invariant subspace of dimension n_r - 1 on which A is b_r = d_r
    - v_r.  The class indicators 1_r span an invariant subspace too, as in
    the oracle's (1), which is the orthogonal complement of all those
    differences.  On its orthonormal basis 1_r / sqrt(n_r), one vector per
    class, A is the core C with C_rr = d_r + (n_r - 1) v_r and C_rs = a_rs
    sqrt(n_r n_s), a_rs any entry of A in the rows of r and the columns of
    s.  C_sr is a_sr sqrt(n_s n_r), the same float product, so C is
    symmetric bit for bit.  The eigenvalues of A are those of C and each
    b_r, n_r - 1 times; only C is reduced, and a matrix with no run is its
    own core.
    """
    a = _as_float_rows(m)
    n = len(a)
    if not all(map(math.isfinite, chain.from_iterable(a))):
        raise NonFiniteError("matrix has a non-finite entry")
    big = max(map(abs, chain.from_iterable(a)), default=0.0)
    if big == 0.0:
        return [0.0] * n
    shift = math.frexp(big)[1]
    scaled = [[math.ldexp(v, -shift) for v in row] for row in a]
    # scaled rows equal to their transpose byte for byte have asymmetry 0,
    # and averaging them would change no bit
    if not _bitwise_symmetric(scaled, Struct(f"{n}d").pack):
        asym = max(
            (abs(a[i][j] - a[j][i]) for i in range(n) for j in range(i + 1, n)),
            default=0.0,
        )
        if asym > SYMMETRY_TOL * big:
            raise AsymmetryError(
                f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL} times the largest entry {big:.3e}"
            )
        for i in range(n):
            for j in range(i + 1, n):
                v = (scaled[i][j] + scaled[j][i]) / 2.0
                scaled[i][j] = scaled[j][i] = v
    classes = _run_classes(scaled)
    deflated = []
    if len(classes) < n:
        # (lo_r, n_r) per class
        spans = [(lo, hi - lo) for lo, hi in classes]
        core = [[scaled[i][j] * math.sqrt(ni * nj) for j, nj in spans] for i, ni in spans]
        for r, (i, size) in enumerate(spans):
            if size > 1:
                d, v = scaled[i][i], scaled[i][i + 1]
                core[r][r] = d + (size - 1) * v
                deflated += [d - v] * (size - 1)
        scaled = core
    eigs = sorted(_tql1(*_tridiagonalize(scaled)) + deflated, reverse=True)
    try:
        return [math.ldexp(v, shift) for v in eigs]
    except OverflowError as exc:
        raise NonFiniteError("an eigenvalue exceeds the float range") from exc


# ---------------------------------------------------------------------------
# exact root counting


def _primitive(p: IntPoly) -> IntPoly:
    """Divide out the content, keeping the sign of the leading coefficient."""
    if p.is_zero():
        return p
    g = math.gcd(*p.coeffs)
    return IntPoly([c // g for c in p.coeffs])


def _signed_prem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Remainder of f by g up to a positive integer scale factor."""
    # scale by |lead(g)| and cancel with the sign of lead(g) in the
    # subtracted term, so every step multiplies f by a positive factor
    scale = abs(g.leading)
    sign = 1 if g.leading > 0 else -1
    r = f
    while not r.is_zero() and r.degree >= g.degree:
        r = r * scale - g * IntPoly([0] * (r.degree - g.degree) + [sign * r.leading])
    return r


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm sequence of p over the integers (positively scaled remainders).

    It is Euclid's algorithm on p and p', so its last member is
    gcd(p, p') up to a constant factor.
    """
    if p.is_zero():
        raise ZeroPolynomialError("Sturm chain of the zero polynomial")
    chain = [_primitive(p)]
    d = p.derivative()
    if not d.is_zero():
        chain.append(_primitive(d))
        while chain[-1].degree > 0:
            r = _signed_prem(chain[-2], chain[-1])
            if r.is_zero():
                break
            chain.append(_primitive(-r))
    return chain


def _sign_changes(signs: Sequence[int]) -> int:
    prev = 0
    changes = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            changes += 1
        prev = s
    return changes


def _chain_real_roots(chain: list[IntPoly]) -> int:
    at_minus = [(-1 if f.leading < 0 else 1) * (-1 if f.degree % 2 else 1) for f in chain]
    at_plus = [-1 if f.leading < 0 else 1 for f in chain]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def is_real_rooted(p: IntPoly) -> bool:
    """True iff every complex root of p is real (certified exactly).

    p has p.degree - deg gcd(p, p') distinct complex roots; the gcd is the
    last member of the Sturm chain that also counts the distinct real ones.
    """
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no well-defined roots")
    if p.degree <= 1:
        return True
    chain = sturm_chain(p)
    return _chain_real_roots(chain) == p.degree - chain[-1].degree


def descartes_sign_changes(p: IntPoly) -> int:
    """Sign changes in the coefficient sequence (zeros skipped)."""
    return _sign_changes([0 if c == 0 else (1 if c > 0 else -1) for c in p.coeffs])


def positive_root_count(p: IntPoly, assume_real_rooted: bool = False) -> int:
    """Positive roots of p counted with multiplicity, exactly.

    Uses the sign-change count, which is exact for real-rooted polynomials;
    unless the caller vouches for real-rootedness it is certified first
    with a Sturm sequence.
    """
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no root count")
    if not assume_real_rooted and not is_real_rooted(p):
        raise ConsistencyError("polynomial has non-real roots; sign-change count unsound")
    return descartes_sign_changes(p)


def roots_below(p: IntPoly, c: int, assume_real_rooted: bool = False) -> int:
    """Roots of p strictly below the integer c, counted with multiplicity."""
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no root count")
    if not assume_real_rooted and not is_real_rooted(p):
        raise ConsistencyError("polynomial has non-real roots; sign-change count unsound")
    # substitute x = c - t; roots below c become positive roots in t:
    # p(x + c) with x = -t flips the odd coefficients
    return descartes_sign_changes(
        IntPoly(-a if j % 2 else a for j, a in enumerate(p.taylor(c)))
    )


def roots_in_open_interval(
    p: IntPoly, a: int, b: int, assume_real_rooted: bool = False
) -> int:
    """Roots with multiplicity in the open interval (a, b), integer endpoints.

    An empty interval (b <= a) holds no root.
    """
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no root count")
    if b <= a:
        return 0
    below_b = roots_below(p, b, assume_real_rooted)
    below_a = roots_below(p, a, assume_real_rooted=True)
    return below_b - below_a - exact_root_multiplicity(p, a)


def exact_root_multiplicity(p: IntPoly, r: int) -> int:
    """Largest e with (x - r)^e dividing p.

    The coefficients of p(x + r) are the remainders of repeated synthetic
    division by x - r, so e is the number of leading zeros among them.
    """
    if p.is_zero():
        raise ZeroPolynomialError("every power divides the zero polynomial")
    e = 0
    for a in p.taylor(r):
        if a:
            break
        e += 1
    return e


# ---------------------------------------------------------------------------
# assembled reports


@dataclass(frozen=True)
class SpectrumReport:
    """Exact and numeric views of one Seidel spectrum, cross-checked.

    Construction fails with TheoremViolationError or ConsistencyError if
    any required property does not hold, so an existing report is itself
    the certificate.
    """

    partition: Partition
    charpoly: FactoredSeidelPoly
    minus_one_multiplicity: int
    positive_roots: int
    roots_below_minus_one: int
    eigenvalues: tuple[float, ...]
    least_eigenvalue: float
    quotient_eigenvalues: tuple[float, ...]
    bound: EigenvalueBound
    bound_satisfied: bool
    bound_tight: bool
    structure: SpectralStructure
    interval_checks: tuple[tuple[float, int, int, bool], ...]
    trace_error: float
    square_sum_error: float
    max_scaled_residual: float

    def to_json_dict(self) -> dict:
        """JSON-ready dict; numbers are decimal strings to avoid precision loss."""
        return {
            "partition": str(self.partition),
            "order": str(self.partition.n),
            "parts": str(self.partition.k),
            "charpoly": {
                "factored": self.charpoly.factored_str(),
                "coefficients": [str(c) for c in self.charpoly.expanded.coeffs],
            },
            "-1_multiplicity": str(self.minus_one_multiplicity),
            "positive_roots": str(self.positive_roots),
            "roots_below_minus_one": str(self.roots_below_minus_one),
            "eigenvalues": [repr(e) for e in self.eigenvalues],
            "least_eigenvalue": repr(self.least_eigenvalue),
            "quotient_eigenvalues": [repr(e) for e in self.quotient_eigenvalues],
            "bound": {
                "value": repr(self.bound.value),
                "rational": str(self.bound.rational),
                "sqrt_coefficient": str(self.bound.sqrt_coefficient),
                "radicands": [str(r) for r in self.bound.radicands],
            },
            "bound_satisfied": self.bound_satisfied,
            "bound_tight": self.bound_tight,
            "intervals": [
                {
                    "low": str(lo),
                    "high": str(hi),
                    "eigenvalue": repr(e),
                    "within": within,
                }
                for e, lo, hi, within in self.interval_checks
            ],
            "checks": {
                "trace_error": repr(self.trace_error),
                "square_sum_error": repr(self.square_sum_error),
                "max_scaled_residual": repr(self.max_scaled_residual),
            },
            "tolerances": {
                "eigen_convergence": repr(EIGEN_CONVERGENCE),
                "comparison": repr(COMPARISON_TOL),
                "residual": repr(RESIDUAL_TOL),
            },
        }


def spectrum_report(partition) -> SpectrumReport:
    """Assemble the full exact/numeric spectrum report for a partition.

    Violated structural properties (wrong -1 multiplicity, wrong positive
    count, extra eigenvalues below -1, broken interlacing, broken bound)
    raise TheoremViolationError; exact/numeric disagreements raise
    ConsistencyError.  The order is checked against the graph cap before
    any exact or numeric work.

    Every exact count is taken on the degree-k residual of
    ``charpoly_coefficients``, whose polynomial is exactly (x+1)^(n-k)
    times the residual: -1 has multiplicity n - k plus its multiplicity in
    the residual, the product is real-rooted iff the residual is (the
    other factor is), and (x+1)^(n-k) has no root below -1 and no positive
    root.  The numeric residual check evaluates that same product, so only
    the report's JSON expands the full polynomial.
    """
    p = partition if isinstance(partition, Partition) else Partition(partition)
    n, k = p.n, p.k
    check_graph_order(n)
    factored = charpoly_coefficients(p)
    residual = factored.residual
    structure = eigenvalue_intervals(p)

    minus_one = factored.ones_exponent + exact_root_multiplicity(residual, -1)
    if minus_one != structure.minus_one_multiplicity:
        raise TheoremViolationError(
            f"{p}: -1 multiplicity {minus_one}, expected {structure.minus_one_multiplicity}"
        )
    if not is_real_rooted(residual):
        raise ConsistencyError(f"{p}: Seidel polynomial is not real-rooted")
    positives = positive_root_count(residual, assume_real_rooted=True)
    if positives != structure.positive_count:
        raise TheoremViolationError(
            f"{p}: {positives} positive roots, expected {structure.positive_count}"
        )
    below = roots_below(residual, -1, assume_real_rooted=True)
    expected_below = 1 if structure.least_is_simple_below_minus_one else 0
    if below != expected_below:
        raise TheoremViolationError(
            f"{p}: {below} roots below -1, expected {expected_below}"
        )

    eigs = tuple(symmetric_eigenvalues(seidel_matrix(complete_multipartite(p))))
    least = eigs[-1]
    numeric_pos = sum(1 for e in eigs if e > COMPARISON_TOL)
    if numeric_pos != positives:
        raise ConsistencyError(
            f"{p}: numeric positive count {numeric_pos} != exact {positives}"
        )
    trace_error = abs(math.fsum(eigs))
    if trace_error > 1e-9:
        raise ConsistencyError(f"{p}: eigenvalue sum {trace_error:.3e} is not zero")
    square_sum_error = abs(math.fsum(e * e for e in eigs) - n * (n - 1))
    if square_sum_error > RESIDUAL_TOL:
        raise ConsistencyError(
            f"{p}: eigenvalue square sum off by {square_sum_error:.3e}"
        )
    max_scaled_residual = max(
        abs((e + 1) ** factored.ones_exponent * residual(e)) / (1 + abs(e)) ** n
        for e in eigs
    )
    if max_scaled_residual > RESIDUAL_TOL:
        raise ConsistencyError(
            f"{p}: eigenvalue residual {max_scaled_residual:.3e} exceeds {RESIDUAL_TOL}"
        )

    quotient_eigs = tuple(
        symmetric_eigenvalues(symmetrize_quotient(quotient_matrix(p), p))
    )
    quotient_residual = max(
        abs(residual(e)) / (1.0 + abs(e)) ** k
        for e in quotient_eigs
    )
    if quotient_residual > RESIDUAL_TOL:
        raise ConsistencyError(
            f"{p}: quotient eigenvalue residual {quotient_residual:.3e}"
        )

    bound = least_eigenvalue_bound(p)
    bound_satisfied = least <= bound.value + COMPARISON_TOL
    if not bound_satisfied:
        raise TheoremViolationError(
            f"{p}: least eigenvalue {least} above bound {bound.value}"
        )
    bound_tight = abs(least - bound.value) <= COMPARISON_TOL

    interval_checks = tuple(
        (e, lo, hi, lo - COMPARISON_TOL <= e <= hi + COMPARISON_TOL)
        for e, (lo, hi) in zip(eigs, structure.intervals)
    )
    if not all(within for *_, within in interval_checks):
        raise TheoremViolationError(f"{p}: interlacing interval violated")

    return SpectrumReport(
        partition=p,
        charpoly=factored,
        minus_one_multiplicity=minus_one,
        positive_roots=positives,
        roots_below_minus_one=below,
        eigenvalues=eigs,
        least_eigenvalue=least,
        quotient_eigenvalues=quotient_eigs,
        bound=bound,
        bound_satisfied=bound_satisfied,
        bound_tight=bound_tight,
        structure=structure,
        interval_checks=interval_checks,
        trace_error=trace_error,
        square_sum_error=square_sum_error,
        max_scaled_residual=max_scaled_residual,
    )
