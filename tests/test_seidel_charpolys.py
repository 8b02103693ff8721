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
    exhaustive_switching_survey,
    graph6_decode,
    seidel_charpolys,
    seidel_matrix,
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
