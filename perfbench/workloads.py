"""The benchmark's three workloads: fixed sequences of ``seidelspec`` CLI calls.

Every call uses the CLI defaults and never passes ``--jobs``, so the
default process pool (``os.cpu_count()`` workers) is what is measured.
ROADMAP items 2 and 3 delete ``--jobs``; a call that passed it would stop
parsing after those changes, and a change that claims a gain may not edit
the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    ref_key: str  # key of the recorded exact-output reference

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    items_per_pass: int  # switching classes, partitions or CLI calls
    calls: Callable[[int], list[Call]]
    # span counts per pass at the seed commit under the default pool
    seed_counts: dict[str, int]


# -- survey ------------------------------------------------------------------

SURVEY_ORDERS = range(1, 8)
SURVEY_CLASSES = sum(1 << comb(n - 1, 2) for n in SURVEY_ORDERS)  # 33,868


def survey_calls(seed: int) -> list[Call]:
    # the exact fields (passed, failures) do not depend on the seed: every
    # switching pair must keep its spectrum, so one reference serves all seeds
    argv = ("verify", "--suite", "switching", "--seed", str(seed), "--json")
    return [Call(argv, "verify --suite switching")]


# -- search ------------------------------------------------------------------

SEARCH_N = 30  # COSPECTRAL_CAP at the seed commit


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def search_calls(seed: int) -> list[Call]:
    argv = ("search", "--n", str(SEARCH_N), "--json")
    return [Call(argv, " ".join(argv[:3]))]


# -- large -------------------------------------------------------------------

LARGE_ORDERS = tuple(range(16, 65, 8))  # 16, 24, ..., 64
LARGE_PARTS = (3, 8)
CATALOG_SEED = 20190202
CATALOG_SIZE = 10  # partitions per order, each with a recorded reference


def random_partition(rng: random.Random, n: int) -> str:
    """n split into 3 to 8 positive part sizes, largest first."""
    k = rng.randint(*LARGE_PARTS)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return ",".join(str(s) for s in sorted(sizes, reverse=True))


def large_catalog() -> dict[int, list[str]]:
    """Fixed partitions per order; the run seed chooses one from each."""
    rng = random.Random(CATALOG_SEED)
    return {n: [random_partition(rng, n) for _ in range(CATALOG_SIZE)] for n in LARGE_ORDERS}


def large_partitions(seed: int) -> list[str]:
    catalog = large_catalog()
    rng = random.Random(seed)
    return [rng.choice(catalog[n]) for n in LARGE_ORDERS]


def partition_calls(partitions) -> list[Call]:
    """``charpoly P --form all`` then ``spectrum P`` for each partition P."""
    calls = []
    for p in partitions:
        for argv in (("charpoly", p, "--form", "all", "--json"), ("spectrum", p, "--json")):
            calls.append(Call(argv, f"{argv[0]} {p}"))
    return calls


def large_calls(seed: int) -> list[Call]:
    return partition_calls(large_partitions(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "survey",
            SURVEY_CLASSES,
            survey_calls,
            {
                "exactalg.charpoly_oracle": 42000,
                "graphs.seidel_matrix": 42000,
                "graphs.switching_equivalent": 1062,
            },
        ),
        Workload(
            "search",
            partition_count(SEARCH_N),
            search_calls,
            {
                "multipartite.charpoly_product": 10419,
                "spectra.exact_root_multiplicity": 6840,
                "exactalg.charpoly_oracle": 0,
                "graphs.seidel_matrix": 0,
            },
        ),
        Workload(
            "large",
            2 * len(LARGE_ORDERS),
            large_calls,
            {"cli.main": 2 * len(LARGE_ORDERS)},
        ),
    )
}
