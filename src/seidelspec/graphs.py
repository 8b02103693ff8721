"""Simple graphs, Seidel matrices, switching, and switching equivalence.

Graphs are stored as a single edge bitmask over the upper triangle in
column-major order ((0,1),(0,2),(1,2),(0,3),...), which is exactly the bit
order of the graph6 format and makes complementation and enumeration cheap
word operations.  That representation caps the order at 64 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, ConsistencyError, GraphFormatError
from .exactalg import IntMatrix
from .multipartite import Partition

MAX_VERTICES = 64
ENUMERATION_CAP = 7      # 2^21 labeled graphs at n=7
EQUIVALENCE_CAP = 10     # switching equivalence decision


def check_graph_order(n: int) -> None:
    """Raise CapExceededError unless a graph of order n is representable."""
    if not 0 <= n <= MAX_VERTICES:
        raise CapExceededError(f"graphs support 0..{MAX_VERTICES} vertices, got {n}")


def _pair_index(i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


class Graph:
    """Undirected simple graph on vertices 0..n-1, edges in one bitmask."""

    __slots__ = ("n", "mask")

    n: int
    mask: int

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        check_graph_order(n)
        self.n = n
        mask = 0
        for u, v in edges:
            self._check_vertex(u)
            self._check_vertex(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            mask |= 1 << _pair_index(u, v)
        self.mask = mask

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Graph":
        g = cls(n)
        if not 0 <= mask < (1 << comb(n, 2)):
            raise ValueError(f"mask {mask} out of range for order {n}")
        g.mask = mask
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for order {self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        return bool((self.mask >> _pair_index(u, v)) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for j in range(1, self.n):
            base = j * (j - 1) // 2
            for i in range(j):
                if (self.mask >> (base + i)) & 1:
                    yield (i, j)

    @property
    def edge_count(self) -> int:
        return self.mask.bit_count()

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return sum(1 for u in range(self.n) if u != v and self.has_edge(u, v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(u for u in range(self.n) if u != v and self.has_edge(u, v))

    def complement(self) -> "Graph":
        full = (1 << comb(self.n, 2)) - 1
        return Graph.from_mask(self.n, self.mask ^ full)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with edge (perm[u], perm[v]) for every edge (u, v)."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm!r} is not a permutation of 0..{self.n - 1}")
        return Graph(self.n, ((perm[u], perm[v]) for u, v in self.edges()))

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabeled 0..len(vertices)-1 in the given order."""
        for v in vertices:
            self._check_vertex(v)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices")
        return Graph(
            len(vertices),
            (
                (index[u], index[v])
                for u, v in self.edges()
                if u in index and v in index
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {sorted(self.edges())!r})"


def seidel_matrix(g: Graph) -> IntMatrix:
    """S(G): zero diagonal, -1 on edges, +1 on non-adjacent distinct pairs.

    Equivalently the adjacency matrix of the signed complete graph whose
    negative edges are exactly the edges of G.
    """
    n = g.n
    mask = g.mask
    rows = [[0] * n for _ in range(n)]
    bit = 0
    # walk the mask in its own column-major pair order
    for j in range(1, n):
        row_j = rows[j]
        for i in range(j):
            rows[i][j] = row_j[i] = -1 if (mask >> bit) & 1 else 1
            bit += 1
    return IntMatrix(rows)


def _vertex_mask(g: Graph, subset) -> int:
    mask = 0
    for v in subset:
        g._check_vertex(v)
        mask |= 1 << v
    return mask


def _cut_edges_mask(n: int, vmask: int) -> int:
    out = 0
    base = 0
    for j in range(1, n):
        bj = (vmask >> j) & 1
        for i in range(j):
            if ((vmask >> i) & 1) != bj:
                out |= 1 << (base + i)
        base += j
    return out


def switch(g: Graph, subset: Iterable[int]) -> Graph:
    """Seidel switching: complement every edge between ``subset`` and the rest.

    Edges inside the subset and inside its complement are untouched;
    switching twice at the same set gives the graph back, and switching at
    the complementary set gives the same result.
    """
    vmask = _vertex_mask(g, subset)
    return Graph.from_mask(g.n, g.mask ^ _cut_edges_mask(g.n, vmask))


def normalize_at(g: Graph, v: int) -> Graph:
    """The unique member of g's switching class in which v is isolated.

    Obtained by switching at the neighbors of v; it is invariant under
    pre-switching g at any set, which makes it a canonical form of the
    class relative to the chosen base vertex.
    """
    return switch(g, g.neighbors(v))


def graph_isomorphic(g: Graph, h: Graph, pinned: tuple[int, int] | None = None):
    """A permutation with g.relabel(perm) == h, or None.

    Backtracking over degree-compatible assignments; ``pinned`` forces one
    image pair (g_vertex, h_vertex).
    """
    if g.n != h.n or g.mask.bit_count() != h.mask.bit_count():
        return None
    n = g.n
    if n == 0:
        return ()
    degg = [g.degree(v) for v in range(n)]
    degh = [h.degree(v) for v in range(n)]
    if sorted(degg) != sorted(degh):
        return None
    candidates: list[list[int]] = [
        [u for u in range(n) if degh[u] == degg[v]] for v in range(n)
    ]
    if pinned is not None:
        gv, hv = pinned
        if hv not in candidates[gv]:
            return None
        candidates[gv] = [hv]
    order = sorted(range(n), key=lambda v: (len(candidates[v]), -degg[v], v))
    adjg = [[g.has_edge(u, v) for u in range(n)] for v in range(n)]
    adjh = [[h.has_edge(u, v) for u in range(n)] for v in range(n)]
    perm: list[int | None] = [None] * n
    used = [False] * n

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        row = adjg[v]
        for u in candidates[v]:
            if used[u]:
                continue
            hrow = adjh[u]
            ok = True
            for w in order[:pos]:
                if row[w] != hrow[perm[w]]:
                    ok = False
                    break
            if not ok:
                continue
            perm[v] = u
            used[u] = True
            if backtrack(pos + 1):
                return True
            perm[v] = None
            used[u] = False
        return False

    if not backtrack(0):
        return None
    return tuple(perm)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SwitchingWitness:
    """Certificate that switching at ``subset`` and relabeling by
    ``permutation`` maps one graph exactly onto another."""

    subset: tuple[int, ...]
    permutation: tuple[int, ...]

    def apply(self, g: Graph) -> Graph:
        return switch(g, self.subset).relabel(self.permutation)


def switching_equivalent(g: Graph, h: Graph, relabel: bool = True):
    """Decide switching equivalence, by default combined with isomorphism.

    Returns a replayable SwitchingWitness or None.  Different orders are a
    definitive no.  Method: each switching class has a canonical member in
    which a chosen base vertex is isolated; the classes of g and h agree up
    to relabeling iff the form of g based at vertex 0 is isomorphic, base
    mapped to base, to the form of h based at some vertex.  With
    ``relabel=False`` only plain switching is allowed and the canonical
    forms must match bit for bit.
    """
    if g.n != h.n:
        return None
    n = g.n
    if n > EQUIVALENCE_CAP:
        raise CapExceededError(
            f"switching equivalence is decided for at most {EQUIVALENCE_CAP} vertices, got {n}"
        )
    if n == 0:
        return SwitchingWitness((), ())
    ng = normalize_at(g, 0)
    bases = range(n) if relabel else (0,)
    for u in bases:
        nh = normalize_at(h, u)
        if relabel:
            perm = graph_isomorphic(ng, nh, pinned=(0, u))
        else:
            perm = tuple(range(n)) if ng == nh else None
        if perm is None:
            continue
        inv = [0] * n
        for a, b in enumerate(perm):
            inv[b] = a
        subset = sorted(
            set(g.neighbors(0)).symmetric_difference(inv[b] for b in h.neighbors(u))
        )
        witness = SwitchingWitness(tuple(subset), perm)
        if witness.apply(g) != h:
            raise ConsistencyError("witness replay does not reproduce the target graph")
        return witness
    return None


def complete_multipartite(partition) -> Graph:
    """The graph with parts of the given sizes and all edges across parts.

    Vertices are grouped consecutively by part (largest part first).
    """
    p = partition if isinstance(partition, Partition) else Partition(partition)
    part_of = [i for i, size in enumerate(p.parts) for _ in range(size)]
    edges = (
        (u, v)
        for v in range(p.n)
        for u in range(v)
        if part_of[u] != part_of[v]
    )
    return Graph(p.n, edges)


def recognize_complete_multipartite(g: Graph):
    """The partition of part sizes if g is complete multipartite, else None.

    The complement must be a disjoint union of cliques; each clique is one
    part.  Checked by taking connected components of the complement and
    verifying every component is complete there.
    """
    if g.n == 0:
        return None
    comp = g.complement()
    seen = [False] * g.n
    sizes: list[int] = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = [start]
        while stack:
            v = stack.pop()
            for u in comp.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
                    component.append(u)
        for i, u in enumerate(component):
            for v in component[i + 1 :]:
                if not comp.has_edge(u, v):
                    return None
        sizes.append(len(component))
    return Partition(sizes)


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs of order n, one per edge bitmask."""
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"exhaustive enumeration is capped at {ENUMERATION_CAP} vertices, got {n}"
        )
    for mask in range(1 << comb(n, 2)):
        yield Graph.from_mask(n, mask)


GRAPH6_HEADER = ">>graph6<<"


def graph6_encode(g: Graph) -> str:
    """Standard graph6 string (orders up to 62)."""
    if g.n > 62:
        raise CapExceededError("graph6 single-byte order field supports n <= 62")
    out = [chr(g.n + 63)]
    nbits = comb(g.n, 2)
    for c in range(0, nbits, 6):
        val = 0
        for t in range(6):
            p = c + t
            bit = (g.mask >> p) & 1 if p < nbits else 0
            val = (val << 1) | bit
        out.append(chr(val + 63))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    """Parse a graph6 string, bit-exact; padding bits must be zero."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise GraphFormatError("empty graph6 string")
    first = ord(s[0])
    if first == 126:
        raise GraphFormatError("graph6 orders above 62 are not supported")
    n = first - 63
    if not 0 <= n <= 62:
        raise GraphFormatError(f"invalid order byte {s[0]!r}")
    nbits = comb(n, 2)
    body = s[1:]
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise GraphFormatError(
            f"expected {expected} data characters for order {n}, got {len(body)}"
        )
    mask = 0
    for c, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise GraphFormatError(f"invalid data character {ch!r}")
        for t in range(6):
            p = 6 * c + t
            bit = (val >> (5 - t)) & 1
            if p < nbits:
                mask |= bit << p
            elif bit:
                raise GraphFormatError("nonzero padding bits")
    return Graph.from_mask(n, mask)
