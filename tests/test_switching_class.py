"""The direct recogniser of switching classes of complete multipartite
graphs against a per-key scan, the exhaustive survey and the backtracking
decision."""

from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seidelspec.determination as determination
from seidelspec import (
    ConsistencyError,
    Graph,
    Partition,
    SwitchingWitness,
    charpoly_product,
    complete_multipartite,
    exhaustive_switching_survey,
    multipartite_switching_class,
    partitions_of,
    seidel_charpolys,
    switch,
    switching_equivalent,
)
from seidelspec.cli import main

# class keys with the spectrum of some complete multipartite graph, per
# order: those the survey's members stand for
MATCHED_KEYS = {1: 1, 2: 1, 3: 2, 4: 8, 5: 37, 6: 172, 7: 814}
# survey members, all certified by the recogniser, per order
SURVEY_MEMBERS = {1: 1, 2: 1, 3: 2, 4: 8, 5: 17, 6: 35, 7: 67}


@pytest.mark.parametrize("n", sorted(MATCHED_KEYS))
def test_accepts_exactly_the_surveys_matched_keys(n):
    # every class key on its own, with no survey: the recogniser accepts
    # a key iff its polynomial is some K_P's, and then names such a P
    spectra = {}
    for p in partitions_of(n):
        spectra.setdefault(charpoly_product(p).expanded, []).append(p)
    keys = [Graph.from_mask(n, d) for d in range(1 << comb(n - 1, 2))]
    accepted = 0
    for g, poly in zip(keys, seidel_charpolys(keys)):
        found = multipartite_switching_class(g)
        assert (found is not None) == (poly in spectra), g
        if found is not None:
            accepted += 1
            assert found[0] in spectra[poly]
    assert accepted == MATCHED_KEYS[n]


def test_survey_certifies_through_the_recogniser(monkeypatch):
    # every member, 131 in all, goes through the public recogniser once
    orders = Counter()

    def counted(g):
        orders[g.n] += 1
        return multipartite_switching_class(g)

    monkeypatch.setattr(determination, "multipartite_switching_class", counted)
    for n in SURVEY_MEMBERS:
        exhaustive_switching_survey(n)
    assert orders == SURVEY_MEMBERS


def test_survey_cross_checks_one_key_per_class_by_backtracking(monkeypatch):
    # one backtracking decision per matched class at the surveyed order,
    # 32 in all for orders 1-7; the dedupe's decisions are at lower orders
    orders = Counter()

    def counted(g, h):
        orders[g.n] += 1
        return switching_equivalent(g, h)

    monkeypatch.setattr(determination, "switching_equivalent", counted)
    decisions = {}
    for n in SURVEY_MEMBERS:
        orders.clear()
        exhaustive_switching_survey(n)
        decisions[n] = orders[n]
    assert decisions == {1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 8, 7: 12}


def test_backtracking_no_unverifies_every_class(monkeypatch, capsys):
    # a backtracking "no" is a violation of its own, one per class, and
    # the switching suite then fails with exit code 3; the dedupe then
    # keeps every candidate, which still meets every class
    monkeypatch.setattr(determination, "switching_equivalent", lambda g, h: None)
    report = exhaustive_switching_survey(7)
    assert len(report.matches) == 12
    assert not any(m.verified for m in report.matches)
    assert report.equivalence_violations == tuple(
        (str(m.partitions[0]), m.members[0]) for m in report.matches
    )
    assert main(["verify", "--suite", "switching"]) == 3
    assert "FAIL switching" in capsys.readouterr().out


@pytest.mark.parametrize("n", sorted(MATCHED_KEYS))
def test_distinct_partitions_are_equivalent_only_with_at_most_two_parts(n):
    # K_P with at most two parts switches to the empty graph; twin class
    # sizes, a switching invariant, tell apart the others
    for p, q in combinations(partitions_of(n), 2):
        found = switching_equivalent(complete_multipartite(p), complete_multipartite(q))
        assert (found is not None) == (p.k <= 2 and q.k <= 2), (p, q)


def test_survey_raises_on_a_bad_replay(monkeypatch):
    # every matched key's witness is replayed; the backtracking decision,
    # which replays its own witnesses, is stubbed out
    monkeypatch.setattr(determination, "switching_equivalent", lambda g, h: None)
    monkeypatch.setattr(SwitchingWitness, "apply", lambda self, g: g.complement())
    with pytest.raises(ConsistencyError):
        exhaustive_switching_survey(4)


@st.composite
def cm_graphs(draw, max_n):
    """(K_P switched and relabeled, P's switching class partition)."""
    n = draw(st.integers(1, max_n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    p = Partition(b - a for a, b in zip([0, *cuts], [*cuts, n]))
    row = draw(st.integers(0, (1 << n) - 1))
    perm = draw(st.permutations(range(n)))
    g = switch(complete_multipartite(p), [v for v in range(n) if row >> v & 1])
    return g.relabel(perm), p if p.k >= 3 else Partition([n])


@st.composite
def any_graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    return Graph.from_mask(n, draw(st.integers(0, (1 << comb(n, 2)) - 1)))


@settings(max_examples=300, deadline=None)
@given(cm_graphs(8))
def test_switched_relabeled_cm_graph_is_recognised(case):
    g, p = case
    found = multipartite_switching_class(g)
    assert found is not None
    assert found[0] == p
    assert found[1].apply(g) == complete_multipartite(p)


@settings(max_examples=300, deadline=None)
@given(any_graphs(8))
def test_every_witness_replays(g):
    found = multipartite_switching_class(g)
    if found is not None:
        p, w = found
        assert w.apply(g) == complete_multipartite(p)


@settings(max_examples=150, deadline=None)
@given(st.one_of(any_graphs(7), cm_graphs(7).map(lambda case: case[0])))
def test_agrees_with_backtracking(g):
    found = multipartite_switching_class(g)
    if found is not None:
        assert switching_equivalent(g, complete_multipartite(found[0])) is not None
    else:
        assert all(
            switching_equivalent(g, complete_multipartite(p)) is None
            for p in partitions_of(g.n)
        )
