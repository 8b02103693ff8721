import hashlib
import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seidelspec import (
    CapExceededError,
    ConsistencyError,
    EmptyPartitionError,
    Graph,
    GraphFormatError,
    IntMatrix,
    Partition,
    SwitchingWitness,
    charpoly_oracle,
    complete_multipartite,
    graph6_decode,
    graph6_encode,
    graph_isomorphic,
    multipartite_switching_class,
    normalize_at,
    partitions_of,
    seidel_matrix,
    switch,
    switching_equivalent,
)
from seidelspec.graphs import (
    MAX_VERTICES,
    _PAIR_ENDS,
    _neighbour_masks,
    _pair_index,
    _switch_rows,
)

P3 = Graph(3, [(0, 1), (1, 2)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])


def random_graph(rng, n):
    return Graph.from_mask(n, rng.getrandbits(comb(n, 2)))


def random_subset(rng, n):
    return [v for v in range(n) if rng.getrandbits(1)]


def brute_force_equivalent(g, h):
    """Try every switch set (vertex 0 fixed outside) and isomorphism."""
    if g.n != h.n:
        return False
    for umask in range(1 << max(g.n - 1, 0)):
        u = [v + 1 for v in range(g.n - 1) if (umask >> v) & 1]
        if graph_isomorphic(switch(g, u), h) is not None:
            return True
    return False


def per_pair_multipartite(p):
    """K_P by its definition: an edge between every two vertices in
    different parts, the parts consecutive, largest first."""
    part_of = [i for i, size in enumerate(p.parts) for _ in range(size)]
    return Graph(
        p.n, ((u, v) for v in range(p.n) for u in range(v) if part_of[u] != part_of[v])
    )


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    return Graph.from_mask(n, draw(st.integers(0, (1 << comb(n, 2)) - 1)))


@st.composite
def partitions_up_to_64(draw):
    n = draw(st.integers(1, 64))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=63))) if n > 1 else []
    return Partition([b - a for a, b in zip([0] + cuts, cuts + [n])])


@st.composite
def switched_relabeled(draw):
    """(g, U, perm) with g of order at most 8."""
    g = draw(graphs(8))
    subset = draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    return g, sorted(subset), tuple(draw(st.permutations(range(g.n))))


class TestSeidelMatrix:
    def test_empty_graph_is_all_plus_one(self):
        m = seidel_matrix(Graph(3))
        assert m == IntMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_complete_graph_is_all_minus_one(self):
        assert seidel_matrix(K3) == IntMatrix([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])

    def test_path(self):
        assert seidel_matrix(P3) == IntMatrix([[0, -1, 1], [-1, 0, -1], [1, -1, 0]])

    @settings(max_examples=60, deadline=None)
    @given(graphs(64))
    @example(Graph(0))
    @example(Graph.from_mask(64, (1 << comb(64, 2)) - 1))
    def test_matches_the_per_pair_definition(self, g):
        want = [
            [0 if u == v else -1 if g.has_edge(u, v) else 1 for v in range(g.n)]
            for u in range(g.n)
        ]
        assert seidel_matrix(g) == IntMatrix(want)


class TestPairOrder:
    def test_pair_ends_invert_the_symmetric_pair_index(self):
        pairs = [(i, j) for j in range(MAX_VERTICES) for i in range(j)]
        assert len(_PAIR_ENDS) == len(pairs) == 2016
        for i, j in pairs:
            assert _PAIR_ENDS[_pair_index(i, j)] == (i, j)
            assert _pair_index(j, i) == _pair_index(i, j)


class TestSwitch:
    def test_empty_set_is_identity(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert switch(g, []) == g

    def test_star_center_switch_removes_all_edges(self):
        # switching the center of a 2-leaf star deletes both cut edges and
        # the non-edge between the leaves stays put
        star = Graph(3, [(0, 1), (0, 2)])
        assert switch(star, [0]) == Graph(3)

    def test_empty_graph_switch_gives_complete_bipartite(self):
        n1, n2 = 3, 2
        g = switch(Graph(n1 + n2), range(n1))
        assert g == complete_multipartite([n1, n2])

    def test_involution_and_complement_set(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(1, 8)
            g = random_graph(rng, n)
            u = random_subset(rng, n)
            assert switch(switch(g, u), u) == g
            rest = [v for v in range(n) if v not in u]
            assert switch(g, u) == switch(g, rest)

    def test_invalid_vertex(self):
        with pytest.raises(IndexError):
            switch(Graph(3), [3])
        with pytest.raises(IndexError):
            switch(Graph(3), [-1])

    def test_repeated_vertex_counts_once(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert switch(g, [1, 1, 2]) == switch(g, [1, 2])
        assert switch(g, [0, 0]) == switch(g, [0])

    def test_matches_per_pair_cut(self):
        rng = random.Random(29)
        for n in [*range(0, 9), 64]:
            g = random_graph(rng, n)
            u = set(random_subset(rng, n))
            want = Graph(
                n,
                (
                    (i, j)
                    for j in range(n)
                    for i in range(j)
                    if g.has_edge(i, j) != ((i in u) != (j in u))
                ),
            )
            assert switch(g, u) == want

    def test_spectral_invariance(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            h = switch(g, random_subset(rng, n))
            assert charpoly_oracle(seidel_matrix(g)) == charpoly_oracle(seidel_matrix(h))


class TestNormalization:
    def test_base_vertex_isolated(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_graph(rng, n)
            v = rng.randrange(n)
            assert normalize_at(g, v).degree(v) == 0

    def test_invariant_under_pre_switching(self):
        rng = random.Random(24)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_graph(rng, n)
            v = rng.randrange(n)
            u = random_subset(rng, n)
            assert normalize_at(switch(g, u), v) == normalize_at(g, v)


class TestIsomorphism:
    def test_path_relabeled(self):
        h = P3.relabel((2, 0, 1))
        perm = graph_isomorphic(P3, h)
        assert perm is not None
        assert P3.relabel(perm) == h

    def test_different_edge_counts(self):
        assert graph_isomorphic(K3, Graph(3)) is None

    def test_degree_sequences_differ(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert graph_isomorphic(c4, star) is None

    def test_pinned_pair(self):
        h = P3.relabel((2, 0, 1))
        # vertex 1 is the middle of P3, image must be its middle (0)
        assert graph_isomorphic(P3, h, pinned=(1, 0)) is not None
        assert graph_isomorphic(P3, h, pinned=(1, 2)) is None


class TestNeighbourRows:
    def test_rows_match_the_edges(self):
        rng = random.Random(33)
        for n in range(0, 65):
            for g in (random_graph(rng, n), Graph.from_mask(n, (1 << comb(n, 2)) - 1)):
                want = [0] * n
                for i, j in g.edges():
                    want[i] |= 1 << j
                    want[j] |= 1 << i
                assert _neighbour_masks(g) == want

    def test_row_switching_matches_switch(self):
        rng = random.Random(34)
        for n in [*range(0, 11), 23, 64]:
            for _ in range(20):
                g = random_graph(rng, n)
                subset = random_subset(rng, n)
                mask = sum(1 << v for v in subset)
                want = _neighbour_masks(switch(g, subset))
                assert _switch_rows(_neighbour_masks(g), mask, (1 << n) - 1) == want


def witness_corpus(seed=33, per_order=111):
    """Pairs of orders 1..9, alternately a random graph with its switched,
    relabeled image and two random graphs: 1,998 pairs."""
    rng = random.Random(seed)
    for n in range(1, 10):
        for i in range(2 * per_order):
            g = random_graph(rng, n)
            if i % 2:
                h = random_graph(rng, n)
            else:
                subset = random_subset(rng, n)
                perm = list(range(n))
                rng.shuffle(perm)
                h = switch(g, subset).relabel(perm)
            yield g, h


# sha256 of the witnesses' (subset, permutation), or None, over
# witness_corpus(); 1,392 of its pairs are equivalent
WITNESS_DIGEST = "692b35a16e69f2aa197296043e9c7a0f293044f0be8b5388404127300dc81fe9"


class TestSwitchingEquivalent:
    def test_witnesses_are_pinned(self):
        digest = hashlib.sha256()
        found = 0
        for g, h in witness_corpus():
            w = switching_equivalent(g, h)
            found += w is not None
            digest.update(repr(None if w is None else (w.subset, w.permutation)).encode())
        assert found == 1392
        assert digest.hexdigest() == WITNESS_DIGEST

    def test_reflexive(self):
        rng = random.Random(25)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            w = switching_equivalent(g, g)
            assert w is not None
            assert w.apply(g) == g

    def test_complete_bipartite_and_empty(self):
        g = complete_multipartite([2, 2])
        h = Graph(4)
        w = switching_equivalent(g, h)
        assert w is not None
        assert w.apply(g) == h
        assert set(w.subset) in ({0, 1}, {2, 3})

    def test_distinct_spectra_not_equivalent(self):
        assert switching_equivalent(
            complete_multipartite([2, 1, 1]), complete_multipartite([3, 1])
        ) is None

    def test_symmetric_with_witness_replay(self):
        rng = random.Random(26)
        for _ in range(30):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            h = switch(g, random_subset(rng, n)).relabel(
                tuple(rng.sample(range(n), n))
            )
            w = switching_equivalent(g, h)
            assert w is not None and w.apply(g) == h
            back = switching_equivalent(h, g)
            assert back is not None and back.apply(h) == g

    def test_agrees_with_brute_force(self):
        rng = random.Random(27)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            h = random_graph(rng, n)
            assert (switching_equivalent(g, h) is not None) == brute_force_equivalent(g, h)

    @settings(max_examples=150, deadline=None)
    @given(switched_relabeled())
    # a relabeled switch, which need not be a plain switch
    @example((complete_multipartite([2, 2]), [0], (1, 2, 3, 0)))
    def test_witness_replays_onto_a_switched_relabeled_graph(self, case):
        g, subset, perm = case
        target = switch(g, subset).relabel(perm)
        w = switching_equivalent(g, target)
        assert w is not None
        assert w.apply(g) == target

    def test_orders_differ(self):
        assert switching_equivalent(Graph(3), Graph(4)) is None

    def test_cap(self):
        with pytest.raises(CapExceededError):
            switching_equivalent(Graph(11), Graph(11))

    def test_bad_replay_raises(self, monkeypatch):
        # the replay check must survive python -O, so it is no assert
        monkeypatch.setattr(SwitchingWitness, "apply", lambda self, g: g.complement())
        with pytest.raises(ConsistencyError):
            switching_equivalent(P3, P3)


class TestCompleteMultipartite:
    def test_all_singletons_is_complete(self):
        assert complete_multipartite([1, 1, 1]) == K3

    def test_single_part_is_empty(self):
        assert complete_multipartite([5]) == Graph(5)

    def test_two_by_two_is_four_cycle(self):
        g = complete_multipartite([2, 2])
        assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_empty_partition(self):
        with pytest.raises(EmptyPartitionError):
            complete_multipartite([])

    def test_over_cap_refused(self):
        with pytest.raises(CapExceededError):
            complete_multipartite([64, 1])
        # refused from the order alone, before any mask is built
        with pytest.raises(CapExceededError):
            complete_multipartite([10**15, 10**15])

    def test_every_partition_to_order_10_matches_the_definition(self):
        for n in range(1, 11):
            for p in partitions_of(n):
                assert complete_multipartite(p) == per_pair_multipartite(p)

    @settings(max_examples=60, deadline=None)
    @given(partitions_up_to_64())
    @example(Partition([1] * 64))
    @example(Partition([64]))
    def test_random_partitions_to_order_64_match_the_definition(self, p):
        assert complete_multipartite(p) == per_pair_multipartite(p)


class TestRecognize:
    def test_four_cycle(self):
        # C4 = K_(2,2): switching at one side gives the empty graph
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        p, w = multipartite_switching_class(c4)
        assert p == Partition([4])
        assert set(w.subset) in ({0, 2}, {1, 3})
        assert w.apply(c4) == Graph(4)

    def test_path_three(self):
        # P3 = K_(2,1), in the switching class of the empty graph
        p, w = multipartite_switching_class(P3)
        assert p == Partition([3])
        assert w.apply(P3) == Graph(3)

    def test_path_four_is_not(self):
        # P4 is not complete multipartite, but its middle vertices are
        # twins (N(1) = full ^ N(2)) and it switches to K_(2,1,1)
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        p, w = multipartite_switching_class(p4)
        assert p == Partition([2, 1, 1])
        assert w.subset != ()
        assert w.apply(p4) == complete_multipartite(p)
        assert switching_equivalent(p4, complete_multipartite(p)) is not None

    def test_roundtrip_all_partitions(self):
        for n in range(1, 13):
            identity = tuple(range(n))
            for p in partitions_of(n):
                g = complete_multipartite(p)
                found = multipartite_switching_class(g)
                if p.k >= 3:
                    # a plain complete multipartite graph needs no switching
                    assert found == (p, SwitchingWitness((), identity))
                else:
                    q, w = found
                    assert q == Partition([n])
                    assert w.apply(g) == Graph(n)
                    assert w.subset == (() if p.k == 1 else tuple(range(p.parts[0], n)))

    def test_minimal_non_cm_graphs(self):
        # 2K2 + K1 and P4 + K1 (the pentagon's switching class)
        for text in ("DCO", "DCo"):
            g = graph6_decode(text)
            assert multipartite_switching_class(g) is None
            assert all(
                switching_equivalent(g, complete_multipartite(p)) is None
                for p in partitions_of(5)
            )

    def test_order_zero(self):
        assert multipartite_switching_class(Graph(0)) is None

    def test_order_64_switched_and_relabeled(self):
        rng = random.Random(30)
        p = Partition([20, 13, 13, 9, 5, 2, 1, 1])
        h = complete_multipartite(p)
        g = switch(h, random_subset(rng, 64)).relabel(rng.sample(range(64), 64))
        q, w = multipartite_switching_class(g)
        assert q == p
        assert w.apply(g) == h

    def test_bad_replay_raises(self, monkeypatch):
        # the replay check must survive python -O, so it is no assert
        monkeypatch.setattr(SwitchingWitness, "apply", lambda self, g: g.complement())
        with pytest.raises(ConsistencyError):
            multipartite_switching_class(complete_multipartite([2, 1, 1]))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        # every labeled graph of order n is one edge mask below 2^C(n,2)
        graphs = [Graph.from_mask(n, d) for d in range(1 << comb(n, 2))]
        assert len(graphs) == count
        assert len(set(graphs)) == count
        with pytest.raises(ValueError):
            Graph.from_mask(n, count)


class TestGraph6:
    def test_known_strings(self):
        assert graph6_encode(complete_multipartite([1, 1, 1, 1])) == "C~"
        assert graph6_encode(Graph(5)) == "D??"
        assert graph6_encode(complete_multipartite([2, 2])) == "C]"

    def test_decode_known(self):
        g = graph6_decode("C]")
        assert g == complete_multipartite([2, 2])

    def test_header_prefix(self):
        assert graph6_decode(">>graph6<<C~") == complete_multipartite([1, 1, 1, 1])

    def test_roundtrip_exhaustive_small(self):
        for n in range(0, 6):
            for d in range(1 << comb(n, 2)):
                g = Graph.from_mask(n, d)
                assert graph6_decode(graph6_encode(g)) == g

    @settings(max_examples=150, deadline=None)
    @given(graphs(62))
    @example(Graph.from_mask(62, (1 << comb(62, 2)) - 1))
    def test_roundtrip_random(self, g):
        assert graph6_decode(graph6_encode(g)) == g

    def test_bad_inputs(self):
        with pytest.raises(GraphFormatError):
            graph6_decode("")
        with pytest.raises(GraphFormatError):
            graph6_decode("C")  # truncated body
        with pytest.raises(GraphFormatError):
            graph6_decode("~???")  # long-order form unsupported
        with pytest.raises(GraphFormatError):
            graph6_decode("B" + chr(63 + 1))  # nonzero padding bit


class TestGraphBasics:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_oversized_order_rejected(self):
        with pytest.raises(CapExceededError):
            Graph(65)

    def test_from_mask_checks_the_order_then_the_mask(self):
        for n, mask in ((65, 0), (65, -1), (-1, 1)):
            with pytest.raises(CapExceededError):
                Graph.from_mask(n, mask)
        for n, mask in ((3, 8), (3, -1), (0, 1)):
            with pytest.raises(ValueError):
                Graph.from_mask(n, mask)
        g = Graph.from_mask(3, 7)
        assert (g.n, g.mask) == (3, 7) and g == K3

    def test_complement_involution(self):
        rng = random.Random(28)
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 8))
            assert g.complement().complement() == g

    def test_mask_reads_match_has_edge(self):
        rng = random.Random(31)
        for n in [*range(0, 9), 64]:
            g = random_graph(rng, n)
            for v in range(n):
                want = tuple(u for u in range(n) if u != v and g.has_edge(u, v))
                assert g.neighbors(v) == want
                assert g.degree(v) == len(want)
            perm = rng.sample(range(n), n)
            assert g.relabel(perm) == Graph(n, ((perm[u], perm[v]) for u, v in g.edges()))
            assert list(g.edges()) == [
                (i, j) for j in range(n) for i in range(j) if g.has_edge(i, j)
            ]

    def test_bad_vertex_and_permutation(self):
        g = Graph(3, [(0, 1)])
        for v in (3, -1):
            with pytest.raises(IndexError):
                g.neighbors(v)
            with pytest.raises(IndexError):
                g.degree(v)
        for perm in ((0, 1), (0, 1, 1), (0, 1, 3)):
            with pytest.raises(ValueError):
                g.relabel(perm)

    def test_induced(self):
        g = complete_multipartite([2, 1])
        sub = g.induced([0, 2])
        assert sorted(sub.edges()) == [(0, 1)]
