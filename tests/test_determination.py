import gc
import sys
from functools import cache
from math import comb, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seidelspec.determination as determination
import seidelspec.multipartite as multipartite
from seidelspec import (
    CapExceededError,
    Graph,
    IntPoly,
    InvalidPartitionError,
    NonMonicError,
    Partition,
    charpoly_coefficients,
    charpoly_oracle,
    charpoly_product,
    check_forced_part_sizes,
    complete_multipartite,
    cospectral_classes,
    exhaustive_switching_survey,
    forced_rule,
    normalize_at,
    partitions_of,
    recover_partitions,
    seidel_charpolys,
    seidel_matrix,
    switch,
    switching_equivalent,
    verify_shared_part_property,
)
from seidelspec.determination import COSPECTRAL_CAP, two_graphs
from seidelspec.exactalg import elementary_symmetric
from seidelspec.multipartite import _read_lanes, residual_weights


class TestPartitionsOf:
    def test_counts(self):
        assert sum(1 for _ in partitions_of(6)) == 11
        assert sum(1 for _ in partitions_of(7)) == 15

    def test_k_filter(self):
        got = list(partitions_of(6, 3))
        assert got == [Partition([4, 1, 1]), Partition([3, 2, 1]), Partition([2, 2, 2])]

    def test_order_is_descending_lex(self):
        got = [p.parts for p in partitions_of(5)]
        assert got == [
            (5,),
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]

    def test_empty(self):
        assert list(partitions_of(0)) == []


def walk_lanes(sig: int, n: int) -> list[int]:
    # the lanes of the walk's packed sigma, lowest first, up to the last
    # nonzero one, read by shifts and masks
    w = 64 * determination._walk_words(n)
    lanes = []
    while sig:
        lanes.append(sig & ((1 << w) - 1))
        sig >>= w
    return lanes


class TestPackedWalk:
    def test_lanes_are_elementary_symmetric_to_order_24(self):
        for n in range(1, 25):
            assert determination._walk_words(n) == 1
            for k in (None, *range(1, n + 1)):
                for parts, sig in determination._partition_walk(n, k):
                    assert walk_lanes(sig, n) == elementary_symmetric(parts), (parts, k)

    def test_order_68_takes_two_words_per_lane(self):
        # C(68, 34) > 2^64, so every lane is two words wide, and the key
        # sigma >> 3w reads back as the search reads it
        assert comb(68, 34) >= 1 << 64
        assert [determination._walk_words(n) for n in (67, 68)] == [1, 2]
        walked = list(determination._partition_walk(68, 3))
        assert [parts for parts, _ in walked] == [p.parts for p in partitions_of(68, 3)]
        assert len(walked) == 385
        for parts, sig in walked:
            assert walk_lanes(sig, 68) == elementary_symmetric(parts)
            key = sig >> 3 * 128
            assert _read_lanes([key.to_bytes(16, sys.byteorder)], 2, "Q") == [prod(parts)]

    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_unsigned_lanes_read_back(self, words):
        # lanes up to 2^(64 words) - 1 in one blob, and two blobs in one read
        w = 64 * words
        lanes = [0, 1, (1 << w) - 1, 1 << (w - 1), 3 << (w // 2), 12345]
        blobs = [
            sum(v << w * i for i, v in enumerate(part)).to_bytes(len(part) * 8 * words, sys.byteorder)
            for part in (lanes[:4], lanes[4:])
        ]
        assert _read_lanes(blobs, words, "Q") == lanes


def positive_integer_roots(p: IntPoly):
    # the roots of monic p if all are positive integers, else None; each is
    # then at most their sum -coeffs[-2], so trial evaluation and exact
    # deflation over 1..sum find them all
    roots = []
    for r in range(1, -p.coeffs[-2] + 1):
        while p.degree > 0 and p(r) == 0:
            roots.append(r)
            p = p.divexact(IntPoly([-r, 1]))
    return roots if p.degree == 0 else None


def reference_recover(residual: IntPoly) -> list[Partition]:
    # the coefficient formula inverted by hand: sigma_1 from x^(k-1), the
    # x^(k-2) check, then sigma_m for m >= 3 with the i = 0, 1 terms peeled
    k = residual.degree
    c = [residual.coeffs[k - m] for m in range(k + 1)]
    sig1 = k - c[1]
    if sig1 < k:
        return []
    if k >= 2 and c[2] != comb(k, 2) - (k - 1) * sig1:
        return []
    sig = {0: 1, 1: sig1}
    for m in range(3, k + 1):
        rhs = c[m] - comb(k, m) + comb(k - 1, m - 1) * sig1
        for i in range(3, m):
            t = (1 << (i - 1)) * (i - 2) * comb(k - i, m - i) * sig[i]
            rhs -= t if (i - 1) % 2 == 0 else -t
        am = (1 << (m - 1)) * (m - 2)
        if (m - 1) % 2 == 1:
            am = -am
        q, r = divmod(rhs, am)
        if r:
            return []
        sig[m] = q
    if k < 2:
        sig2_values = [0]
    else:
        sig2_values = range(comb(k, 2), (sig1 * sig1 * (k - 1)) // (2 * k) + 1)
    found = set()
    for sig2 in sig2_values:
        coeffs = [0] * (k + 1)
        for i in range(k + 1):
            v = sig2 if i == 2 else sig[i]
            coeffs[k - i] = v if i % 2 == 0 else -v
        roots = positive_integer_roots(IntPoly(coeffs))
        if roots is None:
            continue
        cand = Partition(roots)
        if charpoly_coefficients(cand).residual == residual:
            found.add(cand)
    return sorted(found)


class TestRecoverPartitions:
    def test_three_two_one(self):
        residual = charpoly_coefficients(Partition([3, 2, 1])).residual
        assert recover_partitions(residual) == [Partition([3, 2, 1])]

    def test_triangle(self):
        residual = charpoly_coefficients(Partition([1, 1, 1])).residual
        assert recover_partitions(residual) == [Partition([1, 1, 1])]

    def test_two_part_degeneracy(self):
        residual = charpoly_coefficients(Partition([2, 2])).residual
        assert recover_partitions(residual) == [Partition([2, 2]), Partition([3, 1])]

    def test_non_monic_rejected(self):
        with pytest.raises(NonMonicError):
            recover_partitions(IntPoly([1, 2]))

    def test_inconsistent_coefficients(self):
        # tweak the forced x^(k-2) coefficient of a genuine residual
        residual = charpoly_coefficients(Partition([3, 2, 1])).residual
        broken = residual + IntPoly([0, 1])
        assert recover_partitions(broken) == []

    def test_roundtrip_and_soundness(self):
        for n in range(1, 11):
            for p in partitions_of(n):
                residual = charpoly_coefficients(p).residual
                got = recover_partitions(residual)
                assert p in got
                for q in got:
                    assert charpoly_coefficients(q).residual == residual

    @settings(max_examples=150, deadline=None)
    @given(
        parts=st.lists(st.integers(1, 7), min_size=1, max_size=5),
        shift=st.integers(-3, 3),
        at=st.integers(0, 4),
    )
    def test_recovery_round_trip(self, parts, shift, at):
        p = Partition(parts)
        residual = charpoly_coefficients(p).residual
        got = recover_partitions(residual)
        assert p in got
        assert all(charpoly_coefficients(q).residual == residual for q in got)
        assert got == reference_recover(residual)
        # a monic residual off the family by one coefficient below the lead
        near = residual + IntPoly([0] * (at % p.k) + [shift])
        assert recover_partitions(near) == reference_recover(near)

    def test_large_forced_last_sigma_is_not_factored(self):
        # sigma = (1, 9, *, 10**30) at k = 3: sigma_2 has weight zero, and
        # the candidate parts come from the order bound, so sigma_3 is never
        # factored by trial division (about 10**15 steps)
        sig = (1, 9, 0, 10**30)
        residual = IntPoly([sum(map(mul, row, sig)) for row in reversed(residual_weights(3))])
        assert residual.is_monic() and residual.degree == 3
        assert recover_partitions(residual) == []

    def test_large_orders_recover_themselves(self):
        # the parts are split from the forced sum and product, so no sigma_2
        # is swept: the cost does not grow with the square of the order
        # nor with the order itself: (n - 2, 1, 1) walks two cofactors
        for parts in ((998, 1, 1), (9998, 1, 1), (99_999_998, 1, 1)):
            # the factored form: (x+1)^(n-k) is never multiplied out
            residual = charpoly_coefficients(Partition(parts)).residual
            assert recover_partitions(residual) == [Partition(parts)]

    def test_splits_are_the_partitions_with_the_forced_product(self):
        # every (n, k, product) with n <= 18, products one past the largest
        # included: the splits, in order, are the partitions of n into k
        # parts with that product (any product below three parts)
        for n in range(1, 19):
            for k in range(1, n + 1):
                by_product: dict[int, list[tuple[int, ...]]] = {}
                every = []
                for p in partitions_of(n, k):
                    by_product.setdefault(prod(p.parts), []).append(p.parts)
                    every.append(p.parts)
                if k < 3:
                    assert list(determination._splits(n, k, n, None)) == every
                    continue
                for product in range(1, max(by_product) + 2):
                    got = list(determination._splits(n, k, n, product))
                    assert got == by_product.get(product, []), (n, k, product)

    def test_candidates_are_not_expanded(self, monkeypatch):
        # a candidate is checked by its residual alone, never by expanding
        # the full polynomial with its (x+1)^(n-k) factor
        residual = charpoly_coefficients(Partition([998, 1, 1])).residual

        def refuse(*args, **kwargs):
            raise AssertionError("a candidate's full polynomial was expanded")

        monkeypatch.setattr(multipartite, "_times_ones_powers", refuse)
        assert recover_partitions(residual) == [Partition([998, 1, 1])]

    def test_zero_forced_product_is_refused_before_enumeration(self, monkeypatch):
        # sigma = (1, 10**4, *, 0) at k = 3: no positive parts multiply to 0,
        # and every part divides 0, so without the refusal every partition of
        # 10**4 into three parts would be tried; no candidate is checked
        sig = (1, 10**4, 0, 0)
        residual = IntPoly([sum(map(mul, row, sig)) for row in reversed(residual_weights(3))])
        assert residual.is_monic() and residual.degree == 3

        def refuse(p):
            raise AssertionError(f"candidate {p} was checked")

        monkeypatch.setattr(determination, "charpoly_coefficients", refuse)
        assert recover_partitions(residual) == []

    def test_smallest_three_part_cospectral_mates(self):
        # genuine mates: same part-sum and triple product, different pair
        # sum, so the polynomials coincide while the partitions differ
        residual = charpoly_coefficients(Partition([6, 6, 1])).residual
        got = recover_partitions(residual)
        assert got == [Partition([6, 6, 1]), Partition([9, 2, 2])]
        a = charpoly_oracle(seidel_matrix(complete_multipartite([6, 6, 1])))
        b = charpoly_oracle(seidel_matrix(complete_multipartite([9, 2, 2])))
        assert a == b


class TestCospectralClasses:
    def test_order_three(self):
        classes = cospectral_classes(3)
        members = [cls.partitions for cls in classes]
        assert (Partition([1, 1, 1]),) in members
        assert (Partition([2, 1]), Partition([3])) in members
        assert len(classes) == 2

    def test_order_four_bipartite_filter(self):
        classes = cospectral_classes(4, k=2)
        assert len(classes) == 1
        assert classes[0].partitions == (Partition([2, 2]), Partition([3, 1]))
        assert classes[0].degenerate_bipartite

    def test_order_four_all(self):
        classes = cospectral_classes(4)
        assert len(classes) == 3

    def test_multi_member_classes_share_no_size(self):
        for n in range(3, 13):
            for cls in cospectral_classes(n):
                big = [p for p in cls.partitions if p.k >= 3]
                for i, a in enumerate(big):
                    for b in big[i + 1 :]:
                        assert not set(a.parts) & set(b.parts)

    def test_order_thirteen_has_three_part_mates(self):
        classes = cospectral_classes(13, k=3)
        mates = [cls.partitions for cls in classes if len(cls.partitions) > 1]
        assert mates == [(Partition([6, 6, 1]), Partition([9, 2, 2]))]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            cospectral_classes(COSPECTRAL_CAP + 1)

    def test_degenerate_class_polynomial_fits_every_member(self):
        # the class of the partitions into at most two parts keeps the
        # residual of whichever member the walk met first; its polynomial
        # must still be each member's own
        for n in range(1, 13):
            for k in (None, 1, 2):
                degenerate = [
                    cls for cls in cospectral_classes(n, k) if cls.degenerate_bipartite
                ]
                assert len(degenerate) == (0 if (n, k) == (1, 2) else 1)
                for cls in degenerate:
                    assert {p.k for p in cls.partitions} <= {1, 2}
                    assert (Partition([n]) in cls.partitions) == (k != 2)
                    for q in cls.partitions:
                        assert cls.charpoly.expanded == charpoly_coefficients(q).expanded, (n, k, q)

    def test_matches_list_keyed_grouping_to_order_20(self):
        # reference: the grouping on the list (sigma_3, ..., sigma_k), each
        # class's residual built row by row from residual_weights for the
        # first member walked, members sorted, classes by least member
        for n in range(1, 21):
            for k in (None, *range(1, n + 1)):
                groups: dict[tuple[int, ...], list[Partition]] = {}
                for p in partitions_of(n, k):
                    groups.setdefault(tuple(elementary_symmetric(p.parts)[3:]), []).append(p)
                want = []
                for key, members in groups.items():
                    first = members[0].k
                    sig = (1, n, 0, *key)[: first + 1]
                    rows = reversed(residual_weights(first))
                    residual = IntPoly([sum(map(mul, row, sig)) for row in rows])
                    want.append((n - first, (), residual, tuple(sorted(members))))
                want.sort(key=lambda cls: cls[3][0])
                got = [
                    (f.ones_exponent, f.linear_factors, f.residual, cls.partitions)
                    for cls in cospectral_classes(n, k)
                    for f in [cls.charpoly]
                ]
                assert got == want, (n, k)

    def test_class_residual_is_first_walked_members(self):
        # a class keeps only its key and members; its residual, rebuilt
        # from the key with sigma_2 = 0, is that of the member the walk met
        # first, so the two-part class has degree 1 in an all-k search and
        # degree 2 under k = 2
        for n in range(1, 16):
            for k in (None, 1, 2, 3, 4):
                walked = list(partitions_of(n, k))
                for cls in cospectral_classes(n, k):
                    first = min(cls.partitions, key=walked.index)
                    assert cls.charpoly.residual == charpoly_coefficients(first).residual
                    assert cls.charpoly.ones_exponent == n - first.k
                    if cls.degenerate_bipartite and n >= 2:
                        assert first.k == (2 if k == 2 else 1)

    def test_residual_at_minus_one(self):
        # residual(-1) = (-2)^(k-1) (k-2) sigma_k, nonzero for k != 2, so
        # -1 has multiplicity exactly n - k and the polynomial fixes k
        for n in range(1, 21):
            for p in partitions_of(n):
                k = p.k
                sigma_k = elementary_symmetric(p.parts)[k]
                want = (-2) ** (k - 1) * (k - 2) * sigma_k
                assert charpoly_coefficients(p).residual(-1) == want, p

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep the walk's key dictionary alive until the
        # collector's next pass
        gc.collect()
        gc.disable()
        try:
            cospectral_classes(24)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_walk_keeps_order_and_k_pruning(self):
        # with k given, the walk prunes by k and must still give exactly
        # the unfiltered walk's partitions with k parts, in its order
        for n in range(1, 13):
            everything = [p.parts for p in partitions_of(n)]
            for k in range(n + 2):
                got = [parts for parts, _ in determination._partition_walk(n, k)]
                assert got == [parts for parts in everything if len(parts) == k]

    @pytest.mark.parametrize("n, k", [(0, None), (-3, None), (5, 0), (5, -1)])
    def test_rejects_empty_order_or_part_count(self, n, k):
        with pytest.raises(InvalidPartitionError):
            cospectral_classes(n, k)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 18), k=st.one_of(st.none(), st.integers(1, 6)))
    def test_matches_product_form_grouping(self, n, k):
        # reference: group by the cleared-denominator product form, which
        # the search keyed on before it switched to the coefficient formula
        brute: dict[IntPoly, list[Partition]] = {}
        for p in partitions_of(n, k):
            brute.setdefault(charpoly_product(p).expanded, []).append(p)
        classes = cospectral_classes(n, k)
        assert {cls.charpoly.expanded: list(cls.partitions) for cls in classes} == {
            poly: sorted(ps) for poly, ps in brute.items()
        }
        if k is None:
            # every partition into at most two parts shares one class
            small = [cls for cls in classes if Partition([n]) in cls.partitions]
            assert set(small[0].partitions) == {p for p in partitions_of(n) if p.k <= 2}


class TestSharedPartProperty:
    def test_no_violations_small(self):
        for n in range(1, 13):
            report = verify_shared_part_property(n)
            assert report.shared_part_violations == ()

    def test_verdicts_match_fresh_recovery(self):
        # the scan reuses each class residual; check_forced_part_sizes
        # recovers the family and builds the residual on its own
        for n in range(3, 16):
            for v in verify_shared_part_property(n).verdicts:
                if v.partition.k >= 3:
                    assert v == check_forced_part_sizes(v.partition)

    def test_report_json_schema(self):
        report = verify_shared_part_property(4, k=2)
        payload = report.to_json_dict()
        assert payload["order"] == "4"
        assert payload["violations"] == []
        # the classes are a one-shot iterator, expanded as they are taken
        classes = payload["classes"]
        assert iter(classes) is classes
        assert [c["partitions"] for c in classes] == [["2,2", "3,1"]]
        assert list(classes) == []
        assert payload["verdicts"]["2,2"] == "s_determined"


class TestForcedPartSizes:
    def test_three_equal_parts(self):
        v = check_forced_part_sizes(Partition([2, 2, 2]))
        assert v.rule == "repeated_size"
        assert v.status == "s_determined_in_family"
        assert v.mates == ()
        assert all(ok for _, ok in v.evidence)

    def test_trailing_ones(self):
        v = check_forced_part_sizes(Partition([3, 1, 1]))
        assert v.rule == "trailing_ones"
        assert v.status == "s_determined_in_family"
        assert all(ok for _, ok in v.evidence)

    def test_trailing_two_two_one(self):
        v = check_forced_part_sizes(Partition([5, 2, 2, 1]))
        assert v.rule == "trailing_2_2_1"
        assert v.status == "s_determined_in_family"

    def test_bipartite_rule(self):
        v = check_forced_part_sizes(Partition([2, 1]))
        assert v.rule == "bipartite"
        assert v.status == "s_determined"

    def test_two_part_mates_depend_on_the_route(self):
        # check_forced_part_sizes skips recovery at two parts and lists no
        # mates; the search lists the order's other two-part partitions
        assert check_forced_part_sizes(Partition([3, 1])).mates == ()
        verdicts = {v.partition: v for v in verify_shared_part_property(4).verdicts}
        assert verdicts[Partition([3, 1])].mates == (Partition([2, 2]),)

    def test_no_rule(self):
        assert forced_rule(Partition([4, 3, 2])) is None

    def test_forced_rules_imply_family_uniqueness(self):
        for n in range(3, 15):
            for p in partitions_of(n):
                if forced_rule(p) in ("repeated_size", "trailing_ones", "trailing_2_2_1"):
                    v = check_forced_part_sizes(p)
                    assert v.status == "s_determined_in_family"


# (cospectral partitions, survey members, labeled class keys) per order, in
# report order: the class keys with the partitions' spectrum, among all
# 2^C(n-1,2) of order n, which the members' relabeling orbits must give back
SURVEY_MATCHES = {
    1: [("1", 1, 1)],
    2: [("1,1 2", 1, 1)],
    3: [("1,1,1", 1, 1), ("2,1 3", 1, 1)],
    4: [("1,1,1,1", 1, 1), ("2,1,1", 6, 6), ("2,2 3,1 4", 1, 1)],
    5: [
        ("1,1,1,1,1", 1, 1), ("2,1,1,1", 5, 10), ("2,2,1", 5, 15), ("3,1,1", 5, 10),
        ("3,2 4,1 5", 1, 1),
    ],
    6: [
        ("1,1,1,1,1,1", 1, 1), ("2,1,1,1,1", 6, 15), ("2,2,1,1", 4, 45), ("2,2,2", 1, 15),
        ("3,1,1,1", 2, 20), ("3,2,1", 14, 60), ("3,3 4,2 5,1 6", 1, 1), ("4,1,1", 6, 15),
    ],
    7: [
        ("1,1,1,1,1,1,1", 1, 1), ("2,1,1,1,1,1", 7, 21), ("2,2,1,1,1", 5, 105),
        ("2,2,2,1", 3, 105), ("3,1,1,1,1", 2, 35), ("3,2,1,1", 6, 210), ("3,2,2", 4, 105),
        ("3,3,1", 11, 70), ("4,1,1,1", 2, 35), ("4,2,1", 18, 105), ("4,3 5,2 6,1 7", 1, 1),
        ("5,1,1", 7, 21),
    ],
}

# two-graphs per order, OEIS A002854 (Mallows and Sloane)
TWO_GRAPH_COUNTS = (1, 1, 2, 3, 7, 16, 54, 243)


def generators(m):
    # the transposition (0 1) and the cycle v -> v+1 on vertices 0..m-1,
    # which generate every relabeling of them
    swap = [1, 0, *range(2, m)] if m >= 2 else list(range(m))
    return swap, [(v + 1) % m for v in range(m)]


def relabel_orbit(g, m):
    """Edge masks of g under every relabeling that moves only vertices 0..m-1."""
    perms = [[*perm, *range(m, g.n)] for perm in generators(m)]
    seen = {g.mask}
    todo = [g]
    for h in todo:
        for perm in perms:
            image = h.relabel(perm)
            if image.mask not in seen:
                seen.add(image.mask)
                todo.append(image)
    return seen


def class_keys(n, members):
    """The labeled switching classes of the given graphs of order n and of
    their relabelings, each as the edge mask of its member with vertex n-1
    isolated."""
    keys = set()
    for d in members:
        keys |= relabel_orbit(normalize_at(Graph.from_mask(n, d), n - 1), n - 1)
    return keys


def mask_poly(n, d):
    return charpoly_oracle(seidel_matrix(Graph.from_mask(n, d)))


@cache
def representatives(n):
    return two_graphs(n)[n]


class TestSurvey:
    def test_order_three_class_count(self):
        report = exhaustive_switching_survey(3)
        assert report.class_counts == (1, 1)
        assert report.equivalence_violations == ()

    def test_order_four(self):
        report = exhaustive_switching_survey(4)
        assert report.class_counts == (1, 1, 2)
        # K_{2,1,1} is matched and every cospectral class verified
        for m in report.matches:
            if Partition([2, 1, 1]) in m.partitions:
                assert m.verified
                break
        else:
            pytest.fail("no match for 2,1,1")
        assert report.equivalence_violations == ()

    def test_order_five_clean(self):
        report = exhaustive_switching_survey(5)
        assert report.equivalence_violations == ()
        assert all(m.verified for m in report.matches)

    def test_matches_brute_force_grouping(self):
        # every labeled graph of order 5, grouped by its own oracle
        # polynomial and by its class key, must give exactly the labeled
        # classes of the survey's members per partition spectrum
        n = 5
        spectra: dict[IntPoly, list[Partition]] = {}
        for p in partitions_of(n):
            spectra.setdefault(charpoly_product(p).expanded, []).append(p)
        brute: dict[IntPoly, set[int]] = {}
        for d in range(1 << comb(n, 2)):
            poly = mask_poly(n, d)
            if poly in spectra:
                key = normalize_at(Graph.from_mask(n, d), n - 1).mask
                brute.setdefault(poly, set()).add(key)
        report = exhaustive_switching_survey(n)
        assert len(report.matches) == len(spectra)
        for m in report.matches:
            poly = charpoly_product(m.partitions[0]).expanded
            assert m.partitions == tuple(sorted(spectra[poly]))
            assert class_keys(n, m.members) == brute[poly]
            assert m.verified

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_member_rows_and_keys(self, data):
        # the class keys of the cross-checks: a mask below 2^C(n-1,2)
        # leaves vertex n-1 isolated, so it is its own class key, and
        # switching it at the bits of a gives the class member whose
        # vertex n-1 row is a
        n = data.draw(st.integers(1, 7))
        d = data.draw(st.integers(0, (1 << comb(n - 1, 2)) - 1))
        a = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        row = [v for v in range(n - 1) if a >> v & 1]
        member = switch(Graph.from_mask(n, d), row)
        assert list(member.neighbors(n - 1)) == row
        assert normalize_at(member, n - 1).mask == d

    def test_cap(self):
        with pytest.raises(CapExceededError):
            exhaustive_switching_survey(8)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_order_rejected(self, n):
        with pytest.raises(InvalidPartitionError):
            exhaustive_switching_survey(n)

    def test_classes_partition_all_graphs(self):
        # group every labeled graph by normal form and check the class
        # structure: even sizes, constant spectrum
        n = 4
        groups = {}
        for d in range(1 << comb(n, 2)):
            g = Graph.from_mask(n, d)
            groups.setdefault(normalize_at(g, 0).mask, []).append(g)
        assert len(groups) == 8
        for members in groups.values():
            assert len(members) == 2 ** (n - 1)
            polys = {charpoly_oracle(seidel_matrix(g)) for g in members}
            assert len(polys) == 1

    def test_report_json(self):
        payload = exhaustive_switching_survey(3).to_json_dict()
        assert payload["class_counts"] == ["1", "1"]
        assert payload["equivalence_violations"] == []

    @pytest.mark.parametrize("n", sorted(SURVEY_MATCHES))
    def test_report_json_pinned(self, n):
        # members per cospectral class, every one verified and no
        # violation, at every order the survey runs; the members'
        # relabeling orbits give back the labeled class keys
        payload = exhaustive_switching_survey(n).to_json_dict()
        members = [[int(d) for d in m.pop("members")] for m in payload["matches"]]
        assert payload == {
            "order": str(n),
            "class_counts": [str(c) for c in TWO_GRAPH_COUNTS[: n - 1]],
            "matches": [
                {"partitions": parts.split(), "verified": True}
                for parts, _, _ in SURVEY_MATCHES[n]
            ],
            "equivalence_violations": [],
        }
        assert [len(ms) for ms in members] == [count for _, count, _ in SURVEY_MATCHES[n]]
        assert [len(class_keys(n, ms)) for ms in members] == [
            keys for _, _, keys in SURVEY_MATCHES[n]
        ]


class TestTwoGraphs:
    def test_counts_are_a002854(self):
        levels = two_graphs(len(TWO_GRAPH_COUNTS))
        assert [len(level) for level in levels] == [1, *TWO_GRAPH_COUNTS]
        assert all(g.n == m for m, level in enumerate(levels) for g in level)

    @pytest.mark.parametrize("n", range(6))
    def test_every_graph_has_exactly_one_representative(self, n):
        # a representative with another polynomial is in another class, so
        # only those with the graph's own are decided
        reps = representatives(n)
        by_poly: dict[IntPoly, list[Graph]] = {}
        for h, poly in zip(reps, seidel_charpolys(reps)):
            by_poly.setdefault(poly, []).append(h)
        graphs = [Graph.from_mask(n, d) for d in range(1 << comb(n, 2))]
        for g, poly in zip(graphs, seidel_charpolys(graphs)):
            found = [h for h in by_poly.get(poly, []) if switching_equivalent(g, h) is not None]
            assert len(found) == 1, g

    def test_cap(self):
        with pytest.raises(CapExceededError):
            two_graphs(11)


class TestRelabelOrbits:
    @pytest.mark.parametrize(
        "m, count", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]
    )
    def test_orbit_counts_and_partition(self, m, count):
        # graphs on m unlabeled vertices (OEIS A000088): the closure under
        # the two generators relabels exactly within each isomorphism class
        orbits = []
        seen = set()
        for d in range(1 << comb(m, 2)):
            if d not in seen:
                orbit = relabel_orbit(Graph.from_mask(m, d), m)
                seen |= orbit
                orbits.append(orbit)
        assert len(orbits) == count
        assert sum(map(len, orbits)) == 1 << comb(m, 2)

    def test_order_six_keys_match_per_mask_scan(self):
        # the survey's members stand for exactly the class keys that a
        # per-mask oracle scan of all 1,024 keys matches to each spectrum
        n = 6
        polys = [mask_poly(n, d) for d in range(1 << comb(n - 1, 2))]
        report = exhaustive_switching_survey(n)
        for m in report.matches:
            target = charpoly_coefficients(m.partitions[0]).expanded
            want = {d for d, poly in enumerate(polys) if poly == target}
            assert class_keys(n, m.members) == want

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(0, (1 << comb(6, 2)) - 1))
    def test_order_seven_mask_shares_leader_poly(self, d):
        # every class key of order 7 is switching equivalent to one of the
        # 54 two-graph representatives, which has its polynomial
        g = Graph.from_mask(7, d)
        poly = mask_poly(7, d)
        found = [h for h in representatives(7) if switching_equivalent(g, h) is not None]
        assert len(found) == 1
        assert mask_poly(7, found[0].mask) == poly
