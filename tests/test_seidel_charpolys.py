"""The batched Seidel polynomial kernel against the single-matrix oracle,
and the alignment of its results with the inputs of its callers."""

import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seidelspec.determination as determination
import seidelspec.graphs as graphs
import seidelspec.verify as verify
from seidelspec import (
    DimensionError,
    Graph,
    Partition,
    charpoly_oracle,
    charpoly_product,
    complete_multipartite,
    exhaustive_switching_survey,
    graph6_decode,
    seidel_charpolys,
    seidel_matrix,
    switch,
    switching_equivalent,
)
from seidelspec.cli import main

BATCH_SIZES = ("empty", "one", "chunk-1", "chunk", "chunk+1")


def batch_size(n: int, kind: str) -> int:
    if kind == "empty":
        return 0
    if kind == "one":
        return 1
    chunk = graphs._batch_layout(n)[2] if n else 1
    return chunk + {"chunk-1": -1, "chunk": 0, "chunk+1": 1}[kind]


def random_batch(n: int, size: int, seed: int) -> list[Graph]:
    """Random graphs of order n, about one in eight empty and one in eight
    complete."""
    rng = random.Random(seed)
    bits = comb(n, 2)
    masks = []
    for _ in range(size):
        kind = rng.randrange(8)
        masks.append(0 if kind == 0 else (1 << bits) - 1 if kind == 1 else rng.getrandbits(bits))
    return [Graph.from_mask(n, m) for m in masks]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 12),
    kind=st.sampled_from(BATCH_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=64, kind="chunk+1", seed=0)
def test_batch_equals_oracle_graph_by_graph(n, kind, seed):
    batch = random_batch(n, batch_size(n, kind), seed)
    assert seidel_charpolys(batch) == [charpoly_oracle(seidel_matrix(g)) for g in batch]


# every order whose lanes take one more byte than the order below
LANE_ORDERS = [
    n for n in range(1, 65)
    if n == 1 or graphs._batch_layout(n)[1] != graphs._batch_layout(n - 1)[1]
]
# the first order whose lanes are wider than one 64-bit word
MULTI_WORD = 23


def test_lane_orders():
    assert LANE_ORDERS == [
        1, 4, 7, 10, 12, 16, 18, 20, 23, 27, 30, 33, 36, 38, 39, 41, 44, 47, 49, 51, 52,
        54, 57, 59, 62, 64,
    ]
    assert [graphs._batch_layout(n)[1] // 8 for n in LANE_ORDERS] == [*range(1, 10), *range(11, 28)]
    assert graphs._batch_layout(MULTI_WORD - 1)[1] == 64 < graphs._batch_layout(MULTI_WORD)[1]


@pytest.mark.parametrize("n", LANE_ORDERS)
def test_batch_equals_oracle_where_the_lane_widens(n):
    """Lanes of every byte count from 1 to 27.  Below MULTI_WORD the batch
    takes chunk + 1 graphs, cycling through a switched K_P, the empty and
    complete graphs and, up to order 12, random graphs; from MULTI_WORD,
    where the kernel itself costs up to 0.2 s a graph, it is one switched
    K_P (many multi-word lanes side by side are checked below)."""
    rng = random.Random(n)
    parts = [n - 2, 1, 1] if n > 2 else [n]
    subset = [v for v in range(n) if rng.getrandbits(1)]
    distinct = [switch(complete_multipartite(parts), subset)]
    size = 1
    if n < MULTI_WORD:
        distinct += [Graph(n), Graph.from_mask(n, (1 << comb(n, 2)) - 1)]
        if n <= 12:
            distinct += random_batch(n, 5, n)
        size = graphs._batch_layout(n)[2] + 1
    batch = [distinct[i % len(distinct)] for i in range(size)]
    oracle = {g: charpoly_oracle(seidel_matrix(g)) for g in distinct}
    assert seidel_charpolys(batch) == [oracle[g] for g in batch]


@pytest.mark.parametrize("lane_bytes", [1, 7, 8, 9, 16, 17, 24, 25, 27])
def test_wide_lanes_read_graph_by_graph(lane_bytes):
    # any lane at least as wide as the layout's gives the same result, so
    # order 6 runs cheaply through lanes of up to four words, many graphs
    # side by side
    n = 6
    width, lane, _ = graphs._batch_layout(n)
    lane = max(lane, 8 * lane_bytes)
    batch = random_batch(n, 40, lane_bytes)
    want = [charpoly_oracle(seidel_matrix(g)) for g in batch]
    assert graphs._seidel_chunk(n, [g.mask for g in batch], width, lane) == want


def test_mixed_orders_rejected_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a chunk was computed")

    monkeypatch.setattr(graphs, "_seidel_chunk", no_work)
    chunk = graphs._batch_layout(5)[2]
    with pytest.raises(DimensionError):
        seidel_charpolys([Graph(5)] * chunk + [Graph(4)])


def perturbing(order: int, call: int, position: int, seen: list):
    """A kernel that adds 1 to result ``position`` of its ``call``-th call
    (from 0) on graphs of ``order``, recording that graph in ``seen``."""
    calls = []

    def kernel(batch):
        batch = list(batch)
        out = seidel_charpolys(batch)
        if batch and batch[0].n == order:
            if len(calls) == call:
                out[position] = out[position] + 1
                seen.append(batch[position])
            calls.append(len(batch))
        return out

    return kernel


def test_switching_pairs_report_the_perturbed_pair(monkeypatch):
    seed, pairs, order, position = 7, 30, 6, 17
    seen: list[Graph] = []
    # call 0 at each order is the batch of graphs g, call 1 that of h
    monkeypatch.setattr(verify, "seidel_charpolys", perturbing(order, 0, position, seen))
    monkeypatch.setattr(verify, "SWITCHING_PAIRS", pairs)
    result = verify.switching_suite(max_n=order, seed=seed)

    # the suite's draws, replayed up to the perturbed pair
    rng = random.Random(seed)
    for n in range(4, order + 1):
        for i in range(pairs):
            mask = rng.getrandbits(comb(n, 2))
            subset = [v for v in range(n) if rng.getrandbits(1)]
            if (n, i) == (order, position):
                expected = f"switch changed the spectrum: n={n} mask={mask} U={subset}"
                assert seen == [Graph.from_mask(n, mask)]
    assert result.failures == (expected,)


def test_survey_reports_a_graph_given_a_partitions_spectrum(monkeypatch, capsys):
    # 2K2 + K1 (graph6 DCO) is switching equivalent to no complete
    # multipartite graph; a kernel that gives its switching class the
    # spectrum of K_(2,1,1,1) must make the survey report every surveyed
    # member of that class
    order = 5
    dco = graph6_decode("DCO")
    target = charpoly_product(Partition([2, 1, 1, 1])).expanded

    def kernel(batch):
        batch = list(batch)
        return [
            target if g.n == order and switching_equivalent(g, dco) is not None else poly
            for g, poly in zip(batch, seidel_charpolys(batch))
        ]

    monkeypatch.setattr(determination, "seidel_charpolys", kernel)
    report = exhaustive_switching_survey(order)
    (match,) = [m for m in report.matches if Partition([2, 1, 1, 1]) in m.partitions]
    faked = [
        d for d in match.members
        if switching_equivalent(Graph.from_mask(order, d), dco) is not None
    ]
    # the first member is faked too, so the backtracking decision on it
    # adds one more violation after the recogniser's
    assert faked[0] == match.members[0]
    assert not match.verified
    flagged = [*faked, faked[0]]
    assert report.equivalence_violations == tuple(("2,1,1,1", d) for d in flagged)

    monkeypatch.setattr(verify, "SWITCHING_PAIRS", 1)
    result = verify.switching_suite(max_n=order)
    assert result.failures == tuple(
        f"order {order}: graph {d} cospectral with 2,1,1,1 but not equivalent" for d in flagged
    )
    assert main(["verify", "--suite", "switching"]) == 3
    assert "FAIL switching" in capsys.readouterr().out
