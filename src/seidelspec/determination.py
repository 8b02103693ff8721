"""Spectral determination searches over the complete multipartite family.

Partition recovery splits the sum and product of the parts that the
coefficient formula forces (sigma_2 drops out), cospectral classes group the
family by exact characteristic polynomial, and the exhaustive survey walks
every labeled graph at tiny orders to confirm that anything cospectral
with a complete multipartite graph is switching equivalent to it.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import mul
from typing import Iterator, Sequence

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
    Graph,
    complete_multipartite,
    multipartite_switching_class,
    normalize_at,
    seidel_charpolys,
    switch,
    switching_equivalent,
)
from .multipartite import (
    Partition,
    _flat_residual,
    charpoly_coefficients,
    residual_weights,
)
from .spectra import exact_root_multiplicity, roots_in_open_interval

COSPECTRAL_CAP = 36


def partitions_of(n: int, k: int | None = None) -> Iterator[Partition]:
    """Partitions of n (optionally into exactly k parts), descending lex order."""
    if n < 1:
        return

    def rec(remaining: int, largest: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            if k is None or len(prefix) == k:
                yield Partition(prefix)
            return
        if k is not None and len(prefix) >= k:
            return
        for part in range(min(largest, remaining), 0, -1):
            if k is not None and remaining - part < k - len(prefix) - 1:
                continue
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(n, n, [])


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
    the geometric mean, of the parts left.  A candidate is kept when the
    coefficient formula reproduces the residual exactly.  An empty list
    means no partition matches; every partition returned has n = sigma_1.
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

    def splits(total: int, count: int, cap: int, product: int | None) -> Iterator[tuple[int, ...]]:
        if count == 1:
            if product is None or product == total:
                yield (total,)
            return
        for d in range(min(cap, total - count + 1), -(-total // count) - 1, -1):
            if product is not None:
                if d**count < product:
                    break
                if product % d:
                    continue
            left = None if product is None else product // d
            for tail in splits(total - d, count - 1, d, left):
                yield (d, *tail)

    return sorted(
        Partition(parts)
        for parts in splits(sig[1], k, sig[1], product)
        if _flat_residual(parts) == residual
    )


@dataclass(frozen=True)
class CospectralClass:
    """Partitions sharing one exact Seidel characteristic polynomial."""

    charpoly: IntPoly
    partitions: tuple[Partition, ...]

    @property
    def degenerate_bipartite(self) -> bool:
        """True when every member has at most two parts (one switching class)."""
        return all(p.k <= 2 for p in self.partitions)


def cospectral_classes(n: int, k: int | None = None) -> list[CospectralClass]:
    """Group all partitions of n (optionally with k parts) by exact spectrum.

    Each partition is keyed on its expanded polynomial from the coefficient
    formula; keying on the expanded polynomial rather than the residual
    keeps the two-part degeneracy (all partitions into at most two parts
    share one polynomial).  Partitions with different part counts, at
    least one above two, must never share a polynomial (their -1
    multiplicities differ); that is checked, not assumed.
    """
    if n < 1:
        raise InvalidPartitionError(f"cospectral search needs order n >= 1, got {n}")
    if k is not None and k < 1:
        raise InvalidPartitionError(f"cospectral search needs k >= 1 parts, got {k}")
    if n > COSPECTRAL_CAP:
        raise CapExceededError(
            f"cospectral search is capped at order {COSPECTRAL_CAP}, got {n}"
        )
    groups: dict[tuple[int, ...], list[Partition]] = {}
    for p in partitions_of(n, k):
        groups.setdefault(charpoly_coefficients(p).expanded.coeffs, []).append(p)
    classes = [
        CospectralClass(IntPoly(key), tuple(sorted(ps))) for key, ps in groups.items()
    ]
    classes.sort(key=lambda cls: cls.partitions)
    for cls in classes:
        ks = {p.k for p in cls.partitions}
        if len(ks) > 1 and max(ks) > 2:
            raise TheoremViolationError(
                "partitions with different part counts share a spectrum: "
                + "; ".join(str(p) for p in cls.partitions)
            )
    return classes


@dataclass(frozen=True)
class ForcedSizeVerdict:
    """Family-determination verdict for one partition.

    ``rule`` names the structural pattern that forces uniqueness (if any);
    ``evidence`` holds the exact checks backing it; ``mates`` lists other
    partitions with the same spectrum (same part count).
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
    if any(r >= 3 for _, r in p.grouped()):
        return "repeated_size"
    if p.parts[-2:] == (1, 1):
        return "trailing_ones"
    if p.parts[-3:] == (2, 2, 1):
        return "trailing_2_2_1"
    return None


def _build_verdict(
    p: Partition, mates: tuple[Partition, ...], full: IntPoly
) -> ForcedSizeVerdict:
    # full is the expanded Seidel polynomial of p, read by the evidence checks
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
                            exact_root_multiplicity(full, 2 * size - 1) >= r - 1,
                        )
                    )
        elif rule == "trailing_ones":
            evidence.append(("root 1 present", exact_root_multiplicity(full, 1) >= 1))
            evidence.append(
                (
                    "no root in (0,1)",
                    roots_in_open_interval(full, 0, 1, assume_real_rooted=True) == 0,
                )
            )
        elif rule == "trailing_2_2_1":
            evidence.append(("root 3 present", exact_root_multiplicity(full, 3) >= 1))
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
    """Verdict for one partition, recovering its cospectral family afresh."""
    p = partition if isinstance(partition, Partition) else Partition(partition)
    f = charpoly_coefficients(p)
    if p.k <= 2:
        return _build_verdict(p, (), f.expanded)
    family = recover_partitions(f.residual)
    if p not in family:
        raise ConsistencyError(f"recovery lost the partition {p}")
    mates = tuple(q for q in family if q != p)
    return _build_verdict(p, mates, f.expanded)


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
        return {
            "order": str(self.order),
            "k": None if self.k_filter is None else str(self.k_filter),
            "classes": [
                {
                    "charpoly": [str(c) for c in cls.charpoly.coeffs],
                    "partitions": [str(p) for p in cls.partitions],
                    "degenerate_bipartite": cls.degenerate_bipartite,
                }
                for cls in self.classes
            ],
            "violations": [
                {"first": str(a), "second": str(b), "shared_size": str(s)}
                for a, b, s in self.shared_part_violations
            ],
            "verdicts": {str(v.partition): v.status for v in self.verdicts},
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
            verdicts.append(_build_verdict(p, mates, cls.charpoly))
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
# exhaustive survey over all labeled graphs at tiny orders


@dataclass(frozen=True)
class SurveyMatch:
    """All switching classes sharing the spectrum of these partitions."""

    partitions: tuple[Partition, ...]
    class_keys: tuple[int, ...]
    verified: bool


@dataclass(frozen=True)
class SurveyReport:
    """Result of the all-graphs survey at one order.

    Every labeled graph corresponds to exactly one (vertex n-1 row, class
    key) pair, so walking class representatives covers all of them; the
    violation tuples must be empty.  A class key is the edge mask of the
    class member in which vertex n-1 is isolated.  An equivalence
    violation names a matched key that the recogniser or, for a class's
    least key, the backtracking decision does not place in the
    partition's switching class.
    """

    order: int
    graph_count: int
    class_count: int
    class_size: int
    matches: tuple[SurveyMatch, ...]
    equivalence_violations: tuple[tuple[str, int], ...]
    sample_violations: tuple[tuple[int, int], ...]
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "order": str(self.order),
            "graph_count": str(self.graph_count),
            "switching_class_count": str(self.class_count),
            "class_size": str(self.class_size),
            "matches": [
                {
                    "partitions": [str(p) for p in m.partitions],
                    "matched_classes": str(len(m.class_keys)),
                    "verified": m.verified,
                }
                for m in self.matches
            ],
            "equivalence_violations": [
                {"partition": p, "class_key": str(d)}
                for p, d in self.equivalence_violations
            ],
            "sample_violations": [
                {"class_key": str(d), "row": str(a)} for d, a in self.sample_violations
            ],
        }


def relabel_table(m: int, perm: Sequence[int]) -> array:
    """Edge-mask images of all graphs of order m under one relabeling.

    Entry d is ``Graph.from_mask(m, d).relabel(perm).mask``.  Single edges
    are relabeled through the Graph API; every other mask's image is the
    union of the images of its lowest edge and of the rest, which has a
    smaller mask and is already filled in.
    """
    table = array("I", [0]) * (1 << comb(m, 2))
    for b in range(comb(m, 2)):
        table[1 << b] = Graph.from_mask(m, 1 << b).relabel(perm).mask
    for d in range(1, len(table)):
        low = d & -d
        table[d] = table[d ^ low] | table[low]
    return table


def relabel_orbits(m: int) -> Iterator[list[int]]:
    """Orbits of the relabelings of vertices 0..m-1 on edge masks of order m.

    The transposition (0 1) and the cycle v -> v+1 (mod m) generate the
    symmetric group, so a breadth-first walk over their two image tables
    closes each orbit.  Orbits come in increasing order of their least
    mask, which is each list's first entry.
    """
    swap = [1, 0, *range(2, m)] if m >= 2 else list(range(m))
    cycle = [(v + 1) % m for v in range(m)]
    tables = (relabel_table(m, swap), relabel_table(m, cycle))
    seen = bytearray(len(tables[0]))
    for d in range(len(seen)):
        if seen[d]:
            continue
        seen[d] = 1
        orbit = [d]
        for x in orbit:
            for table in tables:
                y = table[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        yield orbit


def exhaustive_switching_survey(n: int) -> SurveyReport:
    """Survey every labeled graph of order n (n at most 7).

    Labeled switching classes are walked through their canonical members
    (vertex n-1 isolated, one class per graph on the first n-1 vertices;
    each class holds exactly 2^(n-1) graphs, one per vertex n-1 row).  In
    the column-major mask order the pairs among vertices 0..n-2 come
    first, so the canonical members are exactly the masks below
    2^C(n-1,2), and such a mask is its class's key.

    Class polynomials are found one relabeling orbit at a time: relabeling
    vertices 0..n-2 keeps vertex n-1 isolated, so it maps class keys to
    class keys, and it conjugates the Seidel matrix by a permutation
    matrix, so every key in an orbit has the same exact polynomial.  One
    polynomial is computed per orbit, on its least key (156 orbits for the
    32,768 keys at order 7), and the whole orbit joins that polynomial's
    key set.

    For every class whose polynomial equals that of a complete
    multipartite partition, switching equivalence with relabeling to that
    graph is decided and recorded.  Each matched key is certified by the
    direct recogniser ``multipartite_switching_class``: it must name the
    partition's switching class, and it replays its own witness against
    that class's complete multipartite graph.  Sampled
    non-canonical members of every matched key get a polynomial of their
    own, checked to equal the class polynomial, so the orbit sharing
    changes how classes are found, not what is verified.  The orbit
    leaders of one order, and the sampled members of one class, each go
    through one ``seidel_charpolys`` batch, which equals
    ``charpoly_oracle`` graph by graph; results are compared in key and
    row order.  The least matched key of every class is also decided
    against that class's complete multipartite graph by
    ``switching_equivalent``, the backtracking decision for general
    pairs, so the survey cross-checks the two deciders on its own
    question; a None there is an equivalence violation too.  Partitions
    need no pairwise checks: those with at most two parts share the one
    degenerate class the recogniser names ``Partition([n])``, and
    distinct partitions with three or more parts differ in their twin
    class sizes, a switching invariant.
    """
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"the exhaustive survey is capped at order {ENUMERATION_CAP}, got {n}"
        )
    if n < 1:
        raise InvalidPartitionError(f"the survey needs order n >= 1, got {n}")
    start = time.monotonic()
    class_count = 1 << comb(n - 1, 2)
    class_size = 1 << (n - 1)

    classes = cospectral_classes(n)
    targets = {cls.charpoly.coeffs: i for i, cls in enumerate(classes)}
    key_sets: list[set[int]] = [set() for _ in classes]
    # held until the batch returns, so as compact arrays
    orbits = [array("I", orbit) for orbit in relabel_orbits(n - 1)]
    leaders = seidel_charpolys([Graph.from_mask(n, orbit[0]) for orbit in orbits])
    for orbit, poly in zip(orbits, leaders):
        idx = targets.get(poly.coeffs)
        if idx is not None:
            key_sets[idx].update(orbit)
    equivalence_violations: list[tuple[str, int]] = []
    sample_violations: list[tuple[int, int]] = []
    matches: list[SurveyMatch] = []
    if class_size <= 8:
        sample_rows = list(range(1, class_size))
    else:
        sample_rows = [1, class_size // 2, class_size - 1]
    for cls, keys in zip(classes, key_sets):
        first = cls.partitions[0]
        anchor = complete_multipartite(first)
        # each partition's own class must show up for its spectrum
        if normalize_at(anchor, n - 1).mask not in keys:
            raise ConsistencyError(f"class of {first} not matched to its own spectrum")
        # K_P with at most two parts is in the switching class of the
        # empty graph, which the recogniser names Partition([n])
        expected = first if first.k >= 3 else Partition([n])
        verified = True
        samples: list[tuple[int, int, Graph]] = []
        ordered = sorted(keys)
        for d in ordered:
            rep = Graph.from_mask(n, d)
            found = multipartite_switching_class(rep)
            if found is None or found[0] != expected:
                verified = False
                equivalence_violations.append((str(first), d))
            for a in sample_rows:
                # the class member whose vertex n-1 row is a
                samples.append((d, a, switch(rep, [v for v in range(n - 1) if a >> v & 1])))
        # one backtracking decision per class on the survey's own
        # question, as a cross-check of the recogniser
        if switching_equivalent(Graph.from_mask(n, ordered[0]), anchor) is None:
            verified = False
            equivalence_violations.append((str(first), ordered[0]))
        polys = seidel_charpolys([member for _, _, member in samples])
        for (d, a, _), poly in zip(samples, polys):
            if poly != cls.charpoly:
                sample_violations.append((d, a))
        matches.append(SurveyMatch(cls.partitions, tuple(ordered), verified))

    return SurveyReport(
        order=n,
        graph_count=1 << comb(n, 2),
        class_count=class_count,
        class_size=class_size,
        matches=tuple(matches),
        equivalence_violations=tuple(equivalence_violations),
        sample_violations=tuple(sample_violations),
        elapsed=time.monotonic() - start,
    )
