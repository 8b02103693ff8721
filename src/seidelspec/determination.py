"""Spectral determination searches over the complete multipartite family.

Partition recovery splits the sum and product of the parts that the
coefficient formula forces (sigma_2 drops out), cospectral classes group the
family by exact characteristic polynomial, and the exhaustive survey walks
every two-graph at tiny orders to confirm that anything cospectral with a
complete multipartite graph is switching equivalent to it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import combinations, islice, repeat
from math import comb
from operator import eq, mul
from typing import Iterator

from .errors import (
    CapExceededError,
    ConsistencyError,
    InvalidPartitionError,
    NonMonicError,
    TheoremViolationError,
)
from .exactalg import IntPoly
from .graphs import (
    ENUMERATION_CAP,
    EQUIVALENCE_CAP,
    Graph,
    complete_multipartite,
    multipartite_switching_class,
    seidel_charpolys,
    switching_equivalent,
)
from .multipartite import (
    FactoredSeidelPoly,
    Partition,
    _read_lanes,
    _sigma_residuals,
    charpoly_coefficients,
    expanded_coefficients,
    residual_weights,
)
from .spectra import exact_root_multiplicity, roots_in_open_interval

COSPECTRAL_CAP = 36
# class polynomials expanded together when a search report is written
_EXPAND_CHUNK = 256


def _parts_from(rest: int, cap: int, slots: int | None) -> Iterator[int]:
    """Next parts to try, largest first: at most cap and rest, and with
    slots parts still to place (this one included) each one leaving between
    slots - 1 and (slots - 1) * part for the others."""
    if slots is None:
        return iter(range(min(cap, rest), 0, -1))
    return iter(range(min(cap, rest - slots + 1), -(-rest // slots) - 1, -1))


def _walk_words(n: int) -> int:
    """64-bit words per lane of the packed sigma of ``_partition_walk(n)``.

    Splitting a part a >= 2 into 1 and a - 1 takes sigma_i, which is
    s_i + a s_(i-1) over the other parts, to
    s_i + a s_(i-1) + (a - 1) s_(i-2): no sigma_i goes down.  Splitting
    until every part is 1 thus gives sigma_i <= C(n, i) <= C(n, floor(n/2))
    for every partition of n.  The packed sigma is the exact integer
    prod (1 + x 2^w) over the parts x, sum sigma_i 2^(w i), so with lanes
    of w >= bit_length(C(n, floor(n/2))) bits each sigma_i is its own lane.
    """
    return -(-comb(n, n // 2).bit_length() // 64)


def _partition_walk(n: int, k: int | None = None) -> Iterator[tuple[tuple[int, ...], int]]:
    """(parts, sigma) for every partition of n (into exactly k parts when k
    is given), in descending lex order, where sigma is the elementary
    symmetric functions of the parts packed into one integer: sigma_i in
    lane i, w = 64 ``_walk_words(n)`` bits per lane.

    A depth-first walk of the partition tree on an explicit stack:
    appending a part x to a prefix takes sigma_i to
    sigma_i + x sigma_(i-1), that is sigma to sigma + x (sigma << w), once
    per edge, and a branch with no partition below it is never entered.
    A tail of r ones is one multiplication by (1 + 2^w)^r.
    """
    if n < 1 or (k is not None and k < 1):
        return
    w = 64 * _walk_words(n)
    ones = [1]
    for _ in range(n):
        ones.append(ones[-1] + (ones[-1] << w))
    parts: list[int] = []
    stack = [(1, n, _parts_from(n, n, k))]
    while stack:
        sig, rest, choices = stack[-1]
        part = next(choices, 0)
        if not part:
            stack.pop()
            if parts:
                parts.pop()
            continue
        rest -= part
        if part == 1:
            # every part after a 1 is a 1: one path, taken in one product
            yield (*parts, *repeat(1, rest + 1)), sig * ones[rest + 1]
            continue
        sig += part * (sig << w)
        if not rest:
            yield (*parts, part), sig
        else:
            parts.append(part)
            slots = None if k is None else k - len(parts)
            stack.append((sig, rest, _parts_from(rest, part, slots)))


def partitions_of(n: int, k: int | None = None) -> Iterator[Partition]:
    """Partitions of n (optionally into exactly k parts), descending lex order."""
    for parts, _ in _partition_walk(n, k):
        yield Partition._of_parts(parts)


def recover_partitions(residual: IntPoly) -> list[Partition]:
    """All partitions whose degree-k residual equals the given polynomial.

    The residual's coefficients are the rows of ``residual_weights(k)``
    applied to sigma_0 = 1, sigma_1, ..., sigma_k, a triangular system
    solved by forward substitution: row 1 gives sigma_1 = n and each row
    m >= 3 pins sigma_m with a nonzero weight.  Row 2 gives sigma_2 weight
    zero, so it is a consistency check instead.  The candidates are the
    non-increasing k-tuples of positive parts with sum sigma_1 and, for
    k >= 3, product sigma_k: each part divides what is left of the
    product, and the largest part left is at least the mean, so at least
    the geometric mean, of the parts left (``_splits``).  A candidate is
    kept when the coefficient formula reproduces the residual exactly.  An
    empty list means no partition matches; every partition returned has
    n = sigma_1.
    """
    if residual.is_zero() or not residual.is_monic():
        raise NonMonicError("residual must be monic and nonzero")
    k = residual.degree
    if k < 1:
        return []
    sig = [1]
    for m, row in enumerate(residual_weights(k)[1:], 1):
        rest = residual.coeffs[k - m] - sum(map(mul, row, sig))
        if row[m]:
            q, r = divmod(rest, row[m])
        else:
            q, r = 0, rest
        if r:
            return []
        sig.append(q)
    product = sig[k] if k >= 3 else None
    if sig[1] < k or (product is not None and product < 1):
        return []
    candidates = map(Partition, _splits(sig[1], k, sig[1], product))
    return sorted(p for p in candidates if charpoly_coefficients(p).residual == residual)


def _splits(
    total: int, count: int, cap: int, product: int | None
) -> Iterator[tuple[int, ...]]:
    """Non-increasing count-tuples of positive parts, each at most cap, with
    sum total and, unless product is None, that product; descending lex.

    The largest part d lies in [ceil(total / count), min(cap, total -
    count + 1)] and, with a product, divides it with d**count >= product.
    When the cofactors product // d of that range are fewer than its
    candidates, the cofactors are walked upward instead, which meets the
    same d in the same descending order: a product such as that of
    (n - 2, 1, 1) then costs two divisions, not a scan of 2n / 3 values.
    """
    if count == 1:
        if product is None or product == total:
            yield (total,)
        return
    high, low = min(cap, total - count + 1), -(-total // count)
    parts: Iterator[int] = iter(range(high, low - 1, -1))
    if product is not None:
        first, last = -(-product // high), product // low
        if last - first < high - low:
            parts = (product // c for c in range(first, last + 1) if not product % c)
    for d in parts:
        if product is not None:
            if d**count < product:
                break
            if product % d:
                continue
        left = None if product is None else product // d
        for tail in _splits(total - d, count - 1, d, left):
            yield (d, *tail)


@dataclass(frozen=True)
class CospectralClass:
    """Partitions sharing one exact Seidel characteristic polynomial.

    ``charpoly`` is (x+1)^(n - degree) times the degree-k residual of the
    class's first partition found.  Every partition with at most two parts
    has the polynomial (x+1)^(n-1) (x+1-n), so in that class the residual
    may be of degree 1 or 2 whatever ``partitions[0]`` is.
    """

    charpoly: FactoredSeidelPoly
    partitions: tuple[Partition, ...]

    @property
    def degenerate_bipartite(self) -> bool:
        """True when every member has at most two parts (one switching class)."""
        return all(p.k <= 2 for p in self.partitions)


def cospectral_classes(n: int, k: int | None = None) -> list[CospectralClass]:
    """Group all partitions of n (optionally with k parts) by exact spectrum.

    One walk of the partition tree gives each partition's elementary
    symmetric functions as one packed integer sigma, w bits per lane
    (``_partition_walk``), and its key is the integer sigma >> 3w, whose
    lanes are sigma_3, ..., sigma_k.  With k parts the polynomial is
    (x+1)^(n-k) times the degree-k residual, whose coefficients are the
    rows of ``residual_weights(k)`` applied to sigma: sigma_1 = n, sigma_2
    has weight 0 in every row, and row m >= 3 gives sigma_m a nonzero
    weight, so two partitions with k parts share a polynomial iff they
    share the key.  The key's top lane is sigma_k >= 1, so partitions with
    different k >= 3 never share one, and every partition with at most two
    parts gets the key 0, the two-part degeneracy.  That no two classes
    share a polynomial either is checked, not assumed: a residual with
    k >= 3 has value (-2)^(k-1) (k-2) sigma_k at -1, which must not
    vanish, so -1 has multiplicity exactly n - k and the polynomial fixes
    k.
    """
    if n < 1:
        raise InvalidPartitionError(f"cospectral search needs order n >= 1, got {n}")
    if k is not None and k < 1:
        raise InvalidPartitionError(f"cospectral search needs k >= 1 parts, got {k}")
    if n > COSPECTRAL_CAP:
        raise CapExceededError(
            f"cospectral search is capped at order {COSPECTRAL_CAP}, got {n}"
        )
    words = _walk_words(n)
    shift = 3 * 64 * words
    groups: dict[int, list[tuple[int, ...]]] = {}
    for parts, sig in _partition_walk(n, k):
        groups.setdefault(sig >> shift, []).append(parts)
    # sigma_2 has weight 0 in every row, so the key and n fix the residual
    # of the first member walked, whose part count is its degree
    degrees = [len(members[0]) for members in groups.values()]
    order = sys.byteorder
    blobs = [
        key.to_bytes((d - 2) * 8 * words, order)
        for key, d in zip(groups, degrees)
        if d >= 3
    ]
    read = iter(_read_lanes(blobs, words, "Q"))
    head = (1, n, 0)
    sigs = [head + tuple(islice(read, d - 2)) if d >= 3 else head[: d + 1] for d in degrees]
    classes = []
    for members, degree, residual in zip(groups.values(), degrees, _sigma_residuals(sigs)):
        members.sort()
        partitions = tuple(map(Partition._of_parts, members))
        if degree >= 3 and not residual(-1):
            raise TheoremViolationError(
                f"the residual of {partitions[0]} vanishes at -1, so its "
                "polynomial does not fix the part count"
            )
        charpoly = FactoredSeidelPoly(n - degree, (), residual)
        classes.append(CospectralClass(charpoly, partitions))
    # member lists are sorted and disjoint, so their least members order
    # the classes as the whole lists would
    classes.sort(key=lambda cls: cls.partitions[0].parts)
    return classes


@dataclass(frozen=True)
class ForcedSizeVerdict:
    """Family-determination verdict for one partition.

    ``rule`` names the structural pattern that forces uniqueness (if any);
    ``evidence`` holds the exact checks backing it; ``mates`` lists other
    partitions with the same spectrum (same part count).  With two parts,
    the search lists every other two-part partition of the order, and
    ``check_forced_part_sizes`` lists none, as it skips recovery there.
    """

    partition: Partition
    status: str
    rule: str | None
    evidence: tuple[tuple[str, bool], ...]
    mates: tuple[Partition, ...]


def forced_rule(p: Partition) -> str | None:
    """The uniqueness pattern a partition falls under, if any."""
    if p.k <= 2:
        return "bipartite"
    # parts are non-increasing, so a size used three or more times fills
    # three consecutive places
    ps = p.parts
    if any(map(eq, ps, ps[2:])):
        return "repeated_size"
    if ps[-2:] == (1, 1):
        return "trailing_ones"
    if ps[-3:] == (2, 2, 1):
        return "trailing_2_2_1"
    return None


def _build_verdict(
    p: Partition, mates: tuple[Partition, ...], residual: IntPoly
) -> ForcedSizeVerdict:
    # the evidence is read off p's degree-k residual: the full polynomial
    # only adds (x+1)^(n-k), which has no root at 1, 3, 2s - 1 or in (0, 1)
    rule = forced_rule(p)
    if rule == "bipartite":
        # all partitions into at most two parts of the same order form one
        # switching class, so the graph is determined outright
        return ForcedSizeVerdict(p, "s_determined", rule, (), mates)
    evidence: list[tuple[str, bool]] = []
    if rule is not None:
        if rule == "repeated_size":
            for size, r in p.grouped():
                if r >= 3:
                    evidence.append(
                        (
                            f"root {2 * size - 1} multiplicity >= {r - 1}",
                            exact_root_multiplicity(residual, 2 * size - 1) >= r - 1,
                        )
                    )
        elif rule == "trailing_ones":
            evidence.append(("root 1 present", exact_root_multiplicity(residual, 1) >= 1))
            evidence.append(
                (
                    "no root in (0,1)",
                    roots_in_open_interval(residual, 0, 1, assume_real_rooted=True) == 0,
                )
            )
        elif rule == "trailing_2_2_1":
            evidence.append(("root 3 present", exact_root_multiplicity(residual, 3) >= 1))
    status = "s_determined_in_family" if not mates else "cospectral_mates_in_family"
    if rule is not None:
        if mates:
            raise TheoremViolationError(
                f"{p} matches forced pattern {rule} but has cospectral mates "
                + ", ".join(str(m) for m in mates)
            )
        if not all(ok for _, ok in evidence):
            raise TheoremViolationError(f"{p}: forced pattern evidence failed")
    return ForcedSizeVerdict(p, status, rule, tuple(evidence), mates)


def check_forced_part_sizes(partition) -> ForcedSizeVerdict:
    """Verdict for one partition, recovering its cospectral family afresh;
    with at most two parts (one switching class) recovery is skipped and
    ``mates`` is (), so Partition([5 * 10**8, 5 * 10**8]) returns at once."""
    p = partition if isinstance(partition, Partition) else Partition(partition)
    residual = charpoly_coefficients(p).residual
    if p.k <= 2:
        return _build_verdict(p, (), residual)
    family = recover_partitions(residual)
    if p not in family:
        raise ConsistencyError(f"recovery lost the partition {p}")
    mates = tuple(q for q in family if q != p)
    return _build_verdict(p, mates, residual)


@dataclass(frozen=True)
class DeterminationReport:
    """Cospectral classes of one order plus per-partition verdicts."""

    order: int
    k_filter: int | None
    classes: tuple[CospectralClass, ...]
    shared_part_violations: tuple[tuple[Partition, Partition, int], ...]
    verdicts: tuple[ForcedSizeVerdict, ...]
    elapsed: float

    def to_json_dict(self) -> dict:
        """The ``search --json`` payload.  ``classes`` is a one-shot iterator
        of class dicts, expanded ``_EXPAND_CHUNK`` classes at a time, so a
        writer that takes it item by item holds one chunk's coefficients
        at most; list it to read it more than once.  Every partition has a
        verdict, and its verdict key is the one string that its class
        lists too; the payload holds the only references to them."""
        names = {}
        verdicts = {}
        for v in self.verdicts:
            names[v.partition.parts] = name = str(v.partition)
            verdicts[name] = v.status
        return {
            "order": str(self.order),
            "k": None if self.k_filter is None else str(self.k_filter),
            "classes": self._class_dicts(names),
            "violations": [
                {"first": str(a), "second": str(b), "shared_size": str(s)}
                for a, b, s in self.shared_part_violations
            ],
            "verdicts": verdicts,
        }

    def _class_dicts(self, names: dict[tuple[int, ...], str]) -> Iterator[dict]:
        # expanded a chunk of classes at a time, so that only one chunk's
        # coefficients are held as integers
        classes = self.classes
        for start in range(0, len(classes), _EXPAND_CHUNK):
            chunk = classes[start : start + _EXPAND_CHUNK]
            polys = expanded_coefficients(cls.charpoly for cls in chunk)
            for cls, coeffs in zip(chunk, polys):
                yield {
                    "charpoly": list(map(str, coeffs)),
                    "partitions": [names[p.parts] for p in cls.partitions],
                    "degenerate_bipartite": cls.degenerate_bipartite,
                }


def verify_shared_part_property(n: int, k: int | None = None) -> DeterminationReport:
    """Scan one order for cospectral partitions sharing a part size.

    For three or more parts, two cospectral partitions must either be
    identical or share no part size at all; any counterexample is recorded
    as a violation.  The two-part collapse is the known switching
    degeneracy and is excluded.
    """
    start = time.monotonic()
    classes = cospectral_classes(n, k)
    violations: list[tuple[Partition, Partition, int]] = []
    verdicts: list[ForcedSizeVerdict] = []
    for cls in classes:
        big = [p for p in cls.partitions if p.k >= 3]
        for a, b in combinations(big, 2):
            shared = set(a.parts) & set(b.parts)
            if shared:
                violations.append((a, b, min(shared)))
        for p in cls.partitions:
            mates = tuple(q for q in cls.partitions if q != p and q.k == p.k)
            verdicts.append(_build_verdict(p, mates, cls.charpoly.residual))
    verdicts.sort(key=lambda v: v.partition)
    return DeterminationReport(
        order=n,
        k_filter=k,
        classes=tuple(classes),
        shared_part_violations=tuple(violations),
        verdicts=tuple(verdicts),
        elapsed=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# exhaustive survey over all two-graphs at tiny orders


@dataclass(frozen=True)
class SurveyMatch:
    """The surveyed graphs sharing the spectrum of these partitions."""

    partitions: tuple[Partition, ...]
    members: tuple[int, ...]
    verified: bool


@dataclass(frozen=True)
class SurveyReport:
    """Result of the two-graph survey at one order.

    ``class_counts`` holds the number of two-graphs built at each order
    1..n-1; ``members`` of a match are the edge masks of the order n
    graphs with the partitions' spectrum, each certified by the
    recogniser.  An equivalence violation names a member that the
    recogniser or, for a class's first member, the backtracking decision
    does not place in the partition's switching class; there must be none.
    """

    order: int
    class_counts: tuple[int, ...]
    matches: tuple[SurveyMatch, ...]
    equivalence_violations: tuple[tuple[str, int], ...]
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "order": str(self.order),
            "class_counts": [str(c) for c in self.class_counts],
            "matches": [
                {
                    "partitions": [str(p) for p in m.partitions],
                    "members": [str(d) for d in m.members],
                    "verified": m.verified,
                }
                for m in self.matches
            ],
            "equivalence_violations": [
                {"partition": p, "mask": str(d)} for p, d in self.equivalence_violations
            ],
        }


def _augment(m: int, graphs: list[Graph]) -> list[Graph]:
    """Every graph of order m - 1 with a vertex m - 1 added, once for each
    neighbourhood inside 0..m-3.

    Switching at {m - 1} alone complements the neighbourhood of m - 1 and
    changes nothing else, so a neighbourhood and its complement give one
    switching class; of the two, only the one without m - 2 is made.  The
    pairs (i, m - 1) are bits C(m-1, 2) + i of the edge mask.
    """
    shift = comb(m - 1, 2)
    rows = range(1 << max(m - 2, 0))
    return [Graph.from_mask(m, g.mask | nb << shift) for g in graphs for nb in rows]


def two_graphs(n: int) -> list[list[Graph]]:
    """Entry m: one graph from every switching class of order m up to
    relabeling, that is one per two-graph, for m = 0..n (n at most 10).

    Built one vertex at a time.  Every graph of order m restricts to a
    graph of order m - 1, which a switch and a relabeling fixing vertex
    m - 1 take to a representative; switching at {m - 1} then leaves
    m - 1 not joined to m - 2, so ``_augment`` of the order m - 1
    representatives meets every class.  The candidates are bucketed on
    their ``seidel_charpolys`` polynomial, a switching invariant, and a
    candidate is kept unless ``switching_equivalent``, whose witness is
    replayed, maps it to one already kept in its bucket.  The counts are
    OEIS A002854: 1, 1, 2, 3, 7, 16, 54, 243, 2038, 33120 for n = 1..10.
    """
    if n > EQUIVALENCE_CAP:
        raise CapExceededError(f"two-graphs are built up to order {EQUIVALENCE_CAP}, got {n}")
    levels = [[Graph(0)]]
    for m in range(1, n + 1):
        candidates = _augment(m, levels[-1])
        buckets: dict[tuple[int, ...], list[Graph]] = {}
        kept: list[Graph] = []
        for g, poly in zip(candidates, seidel_charpolys(candidates)):
            bucket = buckets.setdefault(poly.coeffs, [])
            if all(switching_equivalent(g, h) is None for h in bucket):
                bucket.append(g)
                kept.append(g)
        levels.append(kept)
    return levels


def exhaustive_switching_survey(n: int) -> SurveyReport:
    """Survey every graph of order n up to switching and relabeling (n at
    most 7): is each one cospectral with some K_P switching equivalent to it?

    The two-graphs of order n - 1 from ``two_graphs`` are each extended by
    ``_augment``, with no dedupe, so the candidates meet every switching
    class of order n at least once; one ``seidel_charpolys`` batch gives
    their polynomials.  Every candidate whose polynomial equals a
    partition class's is certified by the direct recogniser
    ``multipartite_switching_class``: it must name the partition's
    switching class, ``Partition([n])`` for every K_P with at most two
    parts (all switch to the empty graph), and it replays its own witness
    against that class's complete multipartite graph.  Every partition
    class must be met, else ConsistencyError.  The first member of every
    class is also decided against that class's complete multipartite
    graph by ``switching_equivalent``, the backtracking decision for
    general pairs, so the survey cross-checks the two deciders on its own
    question; a None there is an equivalence violation too.  Partitions
    need no pairwise checks: distinct partitions with three or more parts
    differ in their twin class sizes, a switching invariant.
    """
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"the exhaustive survey is capped at order {ENUMERATION_CAP}, got {n}"
        )
    if n < 1:
        raise InvalidPartitionError(f"the survey needs order n >= 1, got {n}")
    start = time.monotonic()
    levels = two_graphs(n - 1)
    candidates = _augment(n, levels[-1])
    classes = cospectral_classes(n)
    polys = expanded_coefficients(cls.charpoly for cls in classes)
    targets = {coeffs: i for i, coeffs in enumerate(polys)}
    members: list[list[Graph]] = [[] for _ in classes]
    for g, poly in zip(candidates, seidel_charpolys(candidates)):
        idx = targets.get(poly.coeffs)
        if idx is not None:
            members[idx].append(g)
    equivalence_violations: list[tuple[str, int]] = []
    matches: list[SurveyMatch] = []
    for cls, graphs in zip(classes, members):
        first = cls.partitions[0]
        if not graphs:
            raise ConsistencyError(f"no graph of order {n} has the spectrum of {first}")
        expected = first if first.k >= 3 else Partition([n])
        verified = True
        for g in graphs:
            found = multipartite_switching_class(g)
            if found is None or found[0] != expected:
                verified = False
                equivalence_violations.append((str(first), g.mask))
        # one backtracking decision per class on the survey's own
        # question, as a cross-check of the recogniser
        if switching_equivalent(graphs[0], complete_multipartite(first)) is None:
            verified = False
            equivalence_violations.append((str(first), graphs[0].mask))
        matches.append(SurveyMatch(cls.partitions, tuple(g.mask for g in graphs), verified))

    return SurveyReport(
        order=n,
        class_counts=tuple(len(level) for level in levels[1:]),
        matches=tuple(matches),
        equivalence_violations=tuple(equivalence_violations),
        elapsed=time.monotonic() - start,
    )
