"""Simple graphs, Seidel matrices, switching, and switching equivalence.

Graphs are stored as a single edge bitmask over the upper triangle in
column-major order ((0,1),(0,2),(1,2),(0,3),...), which is exactly the bit
order of the graph6 format and makes complementation and enumeration cheap
word operations.  That representation caps the order at 64 vertices.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from math import comb
from operator import add, and_, floordiv, lshift, mod, rshift, sub, xor
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, ConsistencyError, DimensionError, GraphFormatError
from .exactalg import IntMatrix, IntPoly, _lane_width
from .multipartite import Partition

MAX_VERTICES = 64
ENUMERATION_CAP = 7      # exhaustive two-graph survey: 512 candidates at n=7
EQUIVALENCE_CAP = 10     # switching equivalence decision


def check_graph_order(n: int) -> None:
    """Raise CapExceededError unless a graph of order n is representable."""
    if not 0 <= n <= MAX_VERTICES:
        raise CapExceededError(f"graphs support 0..{MAX_VERTICES} vertices, got {n}")


def _pair_index(i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


# entry p is the pair (i, j), i < j, at bit p of every order's edge mask:
# the inverse of _pair_index
_PAIR_ENDS = tuple((i, j) for j in range(MAX_VERTICES) for i in range(j))


def _pairs(mask: int) -> Iterator[tuple[int, int]]:
    """The pairs at the set bits of an edge mask, in bit order."""
    while mask:
        low = mask & -mask
        yield _PAIR_ENDS[low.bit_length() - 1]
        mask ^= low


@cache
def _stars(n: int) -> tuple[int, ...]:
    """Entry v: the edge-mask bits of every pair of order n incident to v."""
    stars = [0] * n
    for p, (i, j) in enumerate(_PAIR_ENDS[: comb(n, 2)]):
        stars[i] |= 1 << p
        stars[j] |= 1 << p
    return tuple(stars)


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
        check_graph_order(n)
        if not 0 <= mask < (1 << comb(n, 2)):
            raise ValueError(f"mask {mask} out of range for order {n}")
        g = cls.__new__(cls)
        g.n = n
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
        return _pairs(self.mask)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return (self.mask & _stars(self.n)[v]).bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        # the star's bits come in the order of the other end, i ^ j ^ v
        return tuple(i ^ j ^ v for i, j in _pairs(self.mask & _stars(self.n)[v]))

    def complement(self) -> "Graph":
        full = (1 << comb(self.n, 2)) - 1
        return Graph.from_mask(self.n, self.mask ^ full)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with edge (perm[u], perm[v]) for every edge (u, v)."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm!r} is not a permutation of 0..{self.n - 1}")
        mask = 0
        for u, v in _pairs(self.mask):
            mask |= 1 << _pair_index(perm[u], perm[v])
        return Graph.from_mask(self.n, mask)

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


# a pair's bit of the edge mask, as a character, to its Seidel entry as a
# signed byte: 1 off an edge, -1 on one
_SIGN_BYTES = bytes.maketrans(b"01", b"\x01\xff")


def seidel_matrix(g: Graph) -> IntMatrix:
    """S(G): zero diagonal, -1 on edges, +1 on non-adjacent distinct pairs.

    Equivalently the adjacency matrix of the signed complete graph whose
    negative edges are exactly the edges of G.  The mask's bits, lowest
    first, are the entries above the diagonal column by column: the v bits
    from bit C(v, 2) are vertex v's pairs with the vertices below it, so
    they fill row v left of the diagonal and column v above it.
    """
    n = g.n
    signs = bin(g.mask | (1 << comb(n, 2)))[:2:-1].encode().translate(_SIGN_BYTES)
    square = bytearray(n * n)
    start = 0
    for v in range(1, n):
        pairs = signs[start : start + v]
        square[v * n : v * n + v] = pairs
        square[v : v * n : n] = pairs
        start += v
    return IntMatrix._of_ints(tuple(zip(*[iter(memoryview(square).cast("b").tolist())] * n)))


# bits of one chunk's packed row; a chunk holds about C(n,2) + 3n of them
_CHUNK_BITS = 1 << 16


@cache
def _batch_layout(n: int) -> tuple[int, int, int]:
    """(bits of the oracle's lane bound, lane bits, graphs per chunk) for
    Seidel matrices of order n >= 1, whose rows have squared norm n - 1.
    Built once per order."""
    width = _lane_width([n - 1] * n)
    lane = -(-(width + n.bit_length()) // 8) * 8
    return width, lane, max(1, _CHUNK_BITS // (n * lane))


def seidel_charpolys(graphs: Iterable[Graph]) -> list[IntPoly]:
    """det(xI - S(G)) for every graph, in order; the graphs share one order.

    Equal to ``charpoly_oracle(seidel_matrix(g))`` for each g.  The oracle
    first reduces the matrix by its exchangeable column runs; this kernel
    runs the same Faddeev-LeVerrier recurrence, with the same checked
    exact division, on the whole matrix of every graph of a chunk at once.
    Each packed row holds row i of every graph's work matrix W, graph b in
    block b of n lanes.  Row i of S*W is the sum over j != i of W_j,
    negated where ij is an edge.  Every lane is biased to be nonnegative,
    w + half < 2 half, and XOR with 2 half - 1 turns it into half - 1 - w,
    so row i for all graphs at once is sum_(j != i) ((W_j + bias) ^ F_ij)
    plus a constant row, where F_ij covers the lanes of the graphs with
    edge ij.  F_ij is cut from the edge masks; no matrix is built per
    graph.

    A lane holds ``_lane_width([n - 1] * n)`` bits, the oracle's Hadamard
    bound for a Seidel matrix, every row of squared norm n - 1, plus
    bit_length(n) bits so that the n biased diagonal lanes of a block sum
    without a carry, rounded up to whole bytes.  Each step reads lane 0 of
    every block with one strided byte copy per lane byte into a slot of
    native 64-bit words per graph, one memoryview cast, and, for lanes
    wider than a word (from order 23), one Horner step per lower word.
    c_k + half goes back into lane 0 as lane-wide little-endian bytes, one
    strided copy per lane byte.  Graphs of different orders raise
    DimensionError before any work.
    """
    gs = list(graphs)
    if not gs:
        return []
    n = gs[0].n
    if any(g.n != n for g in gs):
        raise DimensionError(
            f"batched Seidel polynomials need one order, got {sorted({g.n for g in gs})}"
        )
    if n == 0:
        return [IntPoly([1]) for _ in gs]
    width, lane, per_chunk = _batch_layout(n)
    out: list[IntPoly] = []
    for start in range(0, len(gs), per_chunk):
        masks = [g.mask for g in gs[start : start + per_chunk]]
        out.extend(_seidel_chunk(n, masks, width, lane))
    return out


def _seidel_chunk(n: int, masks: list[int], width: int, lane: int) -> list[IntPoly]:
    lane_bytes = lane // 8
    block_bytes = n * lane_bytes
    block = 8 * block_bytes
    size = len(masks) * block_bytes
    little = repeat("little")
    blocks = repeat(block_bytes)
    # one bit at the start of every block
    starts = int.from_bytes((b"\x01" + bytes(block_bytes - 1)) * len(masks), "little")
    half = 1 << (width - 1)
    shifts = range(0, block, lane)
    bias = starts * sum(half << s for s in shifts)
    # graph b's edge mask at the start of block b
    packed = int.from_bytes(b"".join(map(int.to_bytes, masks, blocks, little)), "little")
    # the low `width` bits of every lane: XOR there takes a biased lane
    # w + half to half - 1 - w
    low = starts * sum(((1 << width) - 1) << s for s in shifts)
    # terms[i] = (every j != i, the lanes of the graphs with edge ij)
    terms: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n)]
    for p, (i, j) in enumerate(_PAIR_ENDS[: comb(n, 2)]):
        flags = (packed >> p) & starts
        flip = ((flags << block) - flags) & low
        for a, b in ((i, j), (j, i)):
            terms[a][0].append(b)
            terms[a][1].append(flip)
    # with biased rows B = W + bias, row i of S*W + bias is
    # sum_(j != i) (B_j ^ flip_ij) + const[i]: every j adds half, and every
    # neighbour -w_j - 1 in place of w_j, so const[i] adds back the degree
    # of i in every lane of each block and takes off (n - 2) * bias
    ones = starts * sum(1 << s for s in shifts)
    const = [sum(map(and_, repeat(ones), flips)) - (n - 2) * bias for _, flips in terms]
    # W = I, so the first product is S
    rows = [bias + (starts << s) for s in shifts]
    # lane 0 of block b is read as slot b of `words` native 64-bit words:
    # byte t of a lane, lowest first, goes to byte t ^ swap of its slot,
    # which byteswaps every word on a big-endian host
    words = -(-lane_bytes // 8)
    slot = 8 * words
    swap = 7 if sys.byteorder == "big" else 0
    gather = bytearray(len(masks) * slot)
    slots = memoryview(gather).cast("Q")
    scatter = bytearray(size)
    lanes = repeat(lane_bytes)
    offset = n * half
    lifted = half * starts
    cols: list[list[int]] = []
    for k in range(1, n + 1):
        rows = [
            sum(map(xor, map(rows.__getitem__, js), flips)) + c
            for (js, flips), c in zip(terms, const)
        ]
        # lane 0 of each block: its n biased diagonal lanes summed, read
        # top word first with one Horner step per lower word
        diag = sum(map(rshift, rows, shifts)).to_bytes(size, "little")
        for t in range(lane_bytes):
            gather[t ^ swap :: slot] = diag[t::block_bytes]
        sums = slots[words - 1 :: words].tolist()
        for w in reversed(range(words - 1)):
            sums = list(map(add, map(lshift, sums, repeat(64)), slots[w::words].tolist()))
        negtr = list(map(sub, repeat(offset), sums))
        if any(map(mod, negtr, repeat(k))):
            raise ConsistencyError("trace recurrence produced a non-integer coefficient")
        coeffs = list(map(floordiv, negtr, repeat(k)))
        cols.append(coeffs)
        if k == n:
            break
        # c_k + half into lane 0 of each block, then added on the diagonal
        biased = b"".join(map(int.to_bytes, map(add, coeffs, repeat(half)), lanes, little))
        for t in range(lane_bytes):
            scatter[t::block_bytes] = biased[t::lane_bytes]
        step = int.from_bytes(scatter, "little") - lifted
        rows = [row + (step << s) for row, s in zip(rows, shifts)]
    return list(map(IntPoly._of_ints, zip(*reversed(cols), repeat(1))))


def switch(g: Graph, subset: Iterable[int]) -> Graph:
    """Seidel switching: complement every edge between ``subset`` and the rest.

    Edges inside the subset and inside its complement are untouched;
    switching twice at the same set gives the graph back, and switching at
    the complementary set gives the same result.  A pair is cut when the
    set holds exactly one of its ends, so the cut is the XOR of the stars
    of the set's vertices, each vertex counted once.
    """
    n = g.n
    stars = _stars(n)
    seen = 0
    cut = 0
    for v in subset:
        if not 0 <= v < n:
            raise IndexError(f"vertex {v} out of range for order {n}")
        if not seen >> v & 1:
            seen |= 1 << v
            cut ^= stars[v]
    return Graph.from_mask(g.n, g.mask ^ cut)


def normalize_at(g: Graph, v: int) -> Graph:
    """The unique member of g's switching class in which v is isolated.

    Obtained by switching at the neighbors of v; it is invariant under
    pre-switching g at any set, which makes it a canonical form of the
    class relative to the chosen base vertex.
    """
    return switch(g, g.neighbors(v))


@cache
def _row_layout(n: int) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """(C(j, 2), 2^j - 1) for each vertex j, sum 2^(kn), sum 2^(k(n+1)), k < n."""
    lows = tuple((comb(j, 2), (1 << j) - 1) for j in range(n))
    return lows, sum(1 << k * n for k in range(n)), sum(1 << k * (n + 1) for k in range(n))


def _neighbour_masks(g: Graph) -> list[int]:
    """Entry v: the neighbours of v as a vertex bitmask.  Those of j below
    j are bits C(j, 2) .. C(j, 2) + j - 1 of the edge mask.  For those
    above, row j times sum 2^(kn) holds its bit i at every i + kn, all
    distinct, so with no carry; the mask keeps k = i, and the shift by
    j < n + 1 makes it bit j of row i's slot of n + 1 bits."""
    n = g.n
    lows, spread, diagonal = _row_layout(n)
    rows = [g.mask >> start & low for start, low in lows]
    upper = sum((row * spread & diagonal) << j for j, row in enumerate(rows))
    full = (1 << n) - 1
    return [row | upper >> i * (n + 1) & full for i, row in enumerate(rows)]


def _switch_rows(rows: list[int], subset: int, full: int) -> list[int]:
    """Neighbour rows after switching at the vertex bitmask ``subset``: row
    v XOR ``subset``, or XOR ``full ^ subset`` for v in it."""
    return [row ^ (full ^ subset if subset >> v & 1 else subset) for v, row in enumerate(rows)]


def _isomorphisms_from(adjg: list[int]):
    """The search for a relabeling of the graph of neighbour rows ``adjg``
    onto another, g's degree data taken once: a function of (adjh, pinned)
    giving the permutation or None.  Backtracking over degree-compatible
    assignments; ``pinned`` forces one image pair (g_vertex, h_vertex)."""
    n = len(adjg)
    degg = [row.bit_count() for row in adjg]
    profile = sorted(degg)

    def search(adjh: list[int], pinned: tuple[int, int] | None = None):
        degh = [row.bit_count() for row in adjh]
        if sorted(degh) != profile:
            return None
        candidates = [[u for u in range(n) if degh[u] == d] for d in degg]
        if pinned is not None:
            gv, hv = pinned
            if hv not in candidates[gv]:
                return None
            candidates[gv] = [hv]
        order = sorted(range(n), key=lambda v: (len(candidates[v]), -degg[v], v))
        perm = [0] * n
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
                for w in order[:pos]:
                    if (row >> w & 1) != (hrow >> perm[w] & 1):
                        break
                else:
                    perm[v] = u
                    used[u] = True
                    if backtrack(pos + 1):
                        return True
                    used[u] = False
            return False

        return tuple(perm) if backtrack(0) else None

    return search


def graph_isomorphic(g: Graph, h: Graph, pinned: tuple[int, int] | None = None):
    """A permutation with g.relabel(perm) == h, or None; ``pinned`` forces
    one image pair (g_vertex, h_vertex)."""
    return _isomorphisms_from(_neighbour_masks(g))(_neighbour_masks(h), pinned)


@dataclass(frozen=True)
class SwitchingWitness:
    """Certificate that switching at ``subset`` and relabeling by
    ``permutation`` maps one graph exactly onto another."""

    subset: tuple[int, ...]
    permutation: tuple[int, ...]

    def apply(self, g: Graph) -> Graph:
        return switch(g, self.subset).relabel(self.permutation)

    def replay(self, g: Graph, target: Graph) -> None:
        """Raise ConsistencyError unless the witness maps g onto target."""
        if self.apply(g) != target:
            raise ConsistencyError("witness replay does not reproduce the target graph")


def switching_equivalent(g: Graph, h: Graph):
    """Decide switching equivalence combined with isomorphism.

    Returns a SwitchingWitness, replayed against h, or None.  Different
    orders are a definitive no.  Method: each switching class has a
    canonical member in which a chosen base vertex is isolated; the classes
    of g and h agree up to relabeling iff the form of g based at vertex 0
    is isomorphic, base mapped to base, to the form of h based at some
    vertex.  The forms are switched and searched as neighbour rows, the
    form of g and its degrees once; the witness is replayed on the graphs.
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
    # switching at the base's neighbours isolates it
    full = (1 << n) - 1
    rows_g = _neighbour_masks(g)
    rows_h = _neighbour_masks(h)
    search = _isomorphisms_from(_switch_rows(rows_g, rows_g[0], full))
    for u in range(n):
        perm = search(_switch_rows(rows_h, rows_h[u], full), (0, u))
        if perm is None:
            continue
        # N_g(0) symmetric difference the preimage of N_h(u)
        subset = rows_g[0] ^ sum(1 << a for a, b in enumerate(perm) if rows_h[u] >> b & 1)
        witness = SwitchingWitness(tuple(v for v in range(n) if subset >> v & 1), perm)
        witness.replay(g, h)
        return witness
    return None


def complete_multipartite(partition) -> Graph:
    """The graph with parts of the given sizes and all edges across parts.

    Vertices are grouped consecutively by part (largest part first).  The
    edge mask starts from all pairs; in a part starting at vertex s, the
    pairs (s, j), ..., (j - 1, j) are j - s consecutive set bits, cleared
    at once for each later vertex j of the part.
    """
    p = partition if isinstance(partition, Partition) else Partition(partition)
    check_graph_order(p.n)
    mask = (1 << comb(p.n, 2)) - 1
    s = 0
    for size in p.parts:
        for j in range(s + 1, s + size):
            mask ^= ((1 << (j - s)) - 1) << _pair_index(s, j)
        s += size
    return Graph.from_mask(p.n, mask)


def multipartite_switching_class(g: Graph) -> tuple[Partition, SwitchingWitness] | None:
    """Whether g is switching equivalent, with relabeling, to a complete
    multipartite graph: its partition and a replayed witness, or None.

    Decided with no search, for any order up to 64.  Vertices u and v are
    twins when rows u and v of S + I agree up to sign, that is N(u) = N(v)
    or N(u) = full ^ N(v) as vertex bitmasks; twins stay twins under
    switching and relabeling.  The parts of K_P with at least three parts
    are its twin classes, and every vertex of K_P with at most two parts
    is a twin of every other (K_(a,b) switches to the empty graph), so the
    partition is the twin class sizes, ``Partition([n])`` for one class;
    two classes cannot occur.  Switching so that every vertex takes the
    row of its class's least vertex, and so that representative 0 is
    adjacent to every other representative, leaves every class
    independent and every two classes either fully joined or not joined
    at all; g is in the switching class of a complete multipartite graph
    exactly when all of them are joined.  The witness, switching at that
    set and relabeling the classes largest first, is replayed against
    ``complete_multipartite(partition)``; a bad replay raises
    ConsistencyError.  The empty graph of order 0 has no partition and
    gives None.
    """
    n = g.n
    if n == 0:
        return None
    full = (1 << n) - 1
    rows = _neighbour_masks(g)
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        groups.setdefault(min(row, full ^ row), []).append(v)
    classes = list(groups.values())
    if len(classes) == 2:
        # switching at one class would give K_(a,b), whose vertices are
        # all twins, and twin classes are a switching invariant
        raise ConsistencyError(f"two twin classes in {g!r}")
    # representatives: each class's least vertex; representative 0 is vertex 0
    reps = [members[0] for members in classes]
    rep_mask = sum(1 << r for r in reps)
    far = rep_mask & ~rows[0] & ~1
    # switching at `far` makes representative 0 adjacent to every other
    # representative; g switches to a complete multipartite graph exactly
    # when that makes every pair of representatives adjacent
    switched = _switch_rows(rows, far, full)
    for r in reps:
        others = rep_mask ^ (1 << r)
        if switched[r] & others != others:
            return None
    # each vertex takes its representative's row (switch where negated),
    # and the classes not adjacent to representative 0 switch whole
    subset = 0
    for members, r in zip(classes, reps):
        flip = far >> r & 1
        for v in members:
            if (rows[v] != rows[r]) ^ flip:
                subset |= 1 << v
    # complete_multipartite groups the parts consecutively, largest first
    perm = [0] * n
    position = 0
    for members in sorted(classes, key=len, reverse=True):
        for v in members:
            perm[v] = position
            position += 1
    partition = Partition(map(len, classes))
    witness = SwitchingWitness(
        tuple(v for v in range(n) if subset >> v & 1), tuple(perm)
    )
    witness.replay(g, complete_multipartite(partition))
    return partition, witness


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
