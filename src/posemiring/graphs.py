"""Zero-divisor graphs: construction, metrics, shape classification, DOT export.

A graph is one neighbourhood bit mask per vertex; shapes are read from the
degrees and masks.  Each metric is its own function of the masks, and a
shape computes only the ones read from it, on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .core import ByteTable, StructureError, commutative_witness, row_witness

INF = math.inf


@dataclass(frozen=True)
class ZdGraph:
    vertices: tuple[int, ...]   # element indices in the source table
    masks: tuple[int, ...]      # by vertex position: bit j of masks[i] is
                                # set when vertices i and j are adjacent

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors(self, i: int):
        return _members(self.masks[i])

    def degree(self, i: int) -> int:
        return self.masks[i].bit_count()

    def edges(self):
        return [(i, j) for i, m in enumerate(self.masks)
                for j in _members(m) if j > i]


def build_zdgraph(mul) -> ZdGraph:
    """Graph on the nonzero zero divisors of a commutative table with 0 at index 0.

    The least commutativity witness (x, y) is reported before a
    non-absorbed element x0 when x <= x0, as a row-by-row scan would.
    """
    t = ByteTable(mul)
    swap = commutative_witness(t)
    absorb = row_witness(t.rows[0], bytes(t.n))
    if swap and not (absorb and absorb[0] < swap[0]):
        raise StructureError(f"multiplication not commutative at {swap}")
    if absorb:
        raise StructureError(f"0 does not absorb element {absorb[0]}")
    return zdgraph_from_rows(mul)


def zdgraph_from_rows(mul) -> ZdGraph:
    """The graph of bytes mul rows known to be commutative with 0 absorbing
    at index 0, read without checking either: build_zdgraph checks raw
    rows, posemiring_zdgraph reads a table's axiom report."""
    vertices = tuple(x for x in range(1, len(mul)) if 0 in mul[x][1:])
    masks = tuple(sum(1 << j for j, y in enumerate(vertices)
                      if y != x and mul[x][y] == 0) for x in vertices)
    return ZdGraph(vertices=vertices, masks=masks)


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class GraphMetrics:
    """The facts the graph commands print."""
    diameter: float | None      # None for the empty graph, inf when disconnected
    girth: int | None           # None when acyclic
    clique_number: int
    triangle_free: bool
    quadrilateral_free: bool


def girth(masks) -> int | None:
    """The length of a shortest cycle, None when the graph is acyclic.

    Breadth-first layers from each vertex: an edge inside layer d closes a
    cycle of length at most 2d + 1, and a vertex of layer d + 1 with two
    neighbours in layer d one of at most 2d + 2.  From a vertex of a
    shortest cycle the first of these is found at that cycle's length.
    """
    best = None
    for s in range(len(masks)):
        seen = layer = 1 << s
        depth = 0
        while layer and (best is None or 2 * depth + 1 < best):
            reached = _reach(masks, layer)
            if reached & layer:
                best = 2 * depth + 1
                break
            below, layer = layer, reached & ~seen
            if any((masks[w] & below).bit_count() > 1 for w in _members(layer)):
                best = 2 * depth + 2
                break
            seen |= layer
            depth += 1
    return best


def maximal_cliques(masks):
    """Every maximal clique, by Bron-Kerbosch with Tomita's pivot.

    masks[v] is the neighbourhood of v as a bit set; a clique comes out as
    its sorted vertex positions, and the list is sorted.  The empty graph
    has none.
    """
    if not masks:
        return ()
    cliques = []
    _expand(masks, cliques, 0, (1 << len(masks)) - 1, 0)
    return tuple(sorted(cliques))


def _expand(masks, cliques, clique, p, x):
    """Append to cliques every maximal clique that extends the clique bit
    set by vertices of p and by none of x."""
    if not p:
        if not x:
            cliques.append(tuple(_members(clique)))
        return
    # the pivot: the vertex of p | x with the most neighbours in p
    best = -1
    rest = p | x
    while rest:
        low = rest & -rest
        m = masks[low.bit_length() - 1]
        k = (m & p).bit_count()
        if k > best:
            best, cover = k, m
        rest ^= low
    rest = p & ~cover
    while rest:
        low = rest & -rest
        m = masks[low.bit_length() - 1]
        _expand(masks, cliques, clique | low, p & m, x & m)
        p ^= low
        x |= low
        rest ^= low


def _members(mask: int):
    """The set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reach(masks, frontier: int) -> int:
    """The union of the neighbourhoods of the vertices in frontier."""
    reached = 0
    while frontier:
        low = frontier & -frontier
        reached |= masks[low.bit_length() - 1]
        frontier ^= low
    return reached


def eccentricity(masks, v: int) -> float:
    """The greatest distance from vertex v, by bit-mask breadth-first
    search; inf when some vertex is out of reach."""
    seen = frontier = 1 << v
    depth = 0
    while frontier := _reach(masks, frontier) & ~seen:
        seen |= frontier
        depth += 1
    return depth if seen == (1 << len(masks)) - 1 else INF


def component_count(masks) -> int:
    """The number of connected components, by bit-mask flood fill: each
    vertex's mask is read once, when the fill first reaches it."""
    unseen = (1 << len(masks)) - 1
    count = 0
    while unseen:
        count += 1
        frontier = unseen & -unseen     # the least vertex not reached yet
        while frontier:
            unseen &= ~frontier
            frontier = _reach(masks, frontier) & unseen
    return count


def triangle_free(masks) -> bool:
    """Whether no edge has two ends with a common neighbour; equivalently,
    whether the clique number is below 3."""
    return not any(m & masks[w] for m in masks for w in _members(m))


def quadrilateral_free(masks) -> bool:
    """Whether the graph has no C4 subgraph, that is, no vertex pair with
    two common neighbours."""
    n = len(masks)
    return not any((masks[x] & masks[y]).bit_count() >= 2
                   for x in range(n) for y in range(x + 1, n))


def graph_metrics(shape: GraphShape) -> GraphMetrics:
    """The printed facts of a shape's graph, from the facts it caches."""
    masks = shape.graph.masks
    return GraphMetrics(
        diameter=max((eccentricity(masks, v) for v in range(len(masks))),
                     default=None),     # inf exactly when disconnected
        girth=shape.girth,
        clique_number=shape.clique_number,
        triangle_free=shape.triangle_free,
        quadrilateral_free=shape.quadrilateral_free,
    )


# ---------------------------------------------------------------------------
# Shape classification


_ACYCLIC_TAGS = frozenset(("empty", "single-vertex", "star", "two-star",
                           "forest"))


@dataclass(frozen=True)
class GraphShape:
    tag: str            # empty | single-vertex | complete | star | two-star |
                        # complete-bipartite | forest | cyclic
    params: tuple[int, ...]
    graph: ZdGraph = field(compare=False, repr=False)

    # The facts the checks and the commands read, each computed without
    # the others on first read.

    @cached_property
    def maximal_cliques(self) -> tuple[tuple[int, ...], ...]:
        return maximal_cliques(self.graph.masks)

    @property
    def clique_number(self) -> int:
        return max(map(len, self.maximal_cliques), default=0)

    @cached_property
    def triangle_free(self) -> bool:
        return triangle_free(self.graph.masks)

    @cached_property
    def quadrilateral_free(self) -> bool:
        return quadrilateral_free(self.graph.masks)

    @cached_property
    def girth(self) -> int | None:
        return girth(self.graph.masks)

    @property
    def acyclic(self) -> bool:
        """Whether the graph has no cycle.  A complete graph on three or
        more vertices has a triangle, and a complete-bipartite one (never
        a star, which precedes it) has parts of two or more, so a C4."""
        return (self.tag in _ACYCLIC_TAGS
                or self.tag == "complete" and self.params == (2,))

    def line(self) -> str:
        if self.tag == "complete":
            return f"complete n={self.params[0]}"
        if self.tag == "star":
            return f"star r={self.params[0]}"
        if self.tag == "two-star":
            r, s = self.params
            left = "K1" if r == 1 else f"D_{r}"
            return f"two-star r={r} s={s} ({left}+K1+K1+D_{s})"
        if self.tag == "complete-bipartite":
            return f"complete-bipartite m={self.params[0]} n={self.params[1]}"
        if self.tag == "cyclic":
            return f"cyclic girth={self.girth}"
        return self.tag


def classify_shape(G: ZdGraph) -> GraphShape:
    """Deterministic shape tag under a fixed precedence; K2 reports as complete.

    Every tag is read from the degrees and masks, so no metric is computed:
    a two-star is an edge u-v whose ends both have degree >= 2 while every
    other vertex is a leaf on u or on v, K_{m,n} is a graph whose masks
    take exactly two values (no v lies in its own mask, so the vertices
    sharing one value form the other, and those are the parts), and a
    forest is a graph with n - c edges for c components.
    """
    n, masks = G.n, G.masks
    if n <= 1:
        return GraphShape("empty" if n == 0 else "single-vertex", (), G)
    degrees = [m.bit_count() for m in masks]
    nedges = sum(degrees) // 2
    if nedges == n * (n - 1) // 2:
        return GraphShape("complete", (n,), G)
    if nedges == n - 1 and n - 1 in degrees:
        return GraphShape("star", (n - 1,), G)
    hubs = [v for v, d in enumerate(degrees) if d >= 2]
    if len(hubs) == 2 and masks[hubs[0]] >> hubs[1] & 1:
        r, s = (masks.count(1 << v) for v in hubs)     # leaves on each
        if r + s == n - 2:
            return GraphShape("two-star", tuple(sorted((r, s))), G)
    parts = set(masks)
    if len(parts) == 2:
        return GraphShape("complete-bipartite",
                          tuple(sorted(m.bit_count() for m in parts)), G)
    return GraphShape("forest" if nedges == n - component_count(masks)
                      else "cyclic", (), G)


# ---------------------------------------------------------------------------
# DOT export


def export_dot(G: ZdGraph, labels) -> str:
    def quote(x):
        return '"' + labels[x].replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph zd {"]
    for i in range(G.n):
        if G.degree(i) == 0:
            lines.append(f"  {quote(G.vertices[i])};")
    for i, j in G.edges():
        lines.append(f"  {quote(G.vertices[i])} -- {quote(G.vertices[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
