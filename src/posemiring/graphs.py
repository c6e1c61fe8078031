"""Zero-divisor graphs: construction, metrics, shape classification, DOT export."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import StructureError

INF = math.inf


@dataclass(frozen=True)
class ZdGraph:
    vertices: tuple[int, ...]            # element indices in the source table
    adjacency: tuple[tuple[bool, ...], ...]  # by vertex position, symmetric

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors(self, i: int):
        return [j for j in range(self.n) if self.adjacency[i][j]]

    def degree(self, i: int) -> int:
        return sum(self.adjacency[i])

    def edges(self):
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.adjacency[i][j]]


def build_zdgraph(mul) -> ZdGraph:
    """Graph on the nonzero zero divisors of a commutative table with 0 at index 0."""
    n = len(mul)
    for x in range(n):
        for y in range(n):
            if mul[x][y] != mul[y][x]:
                raise StructureError(f"multiplication not commutative at ({x}, {y})")
        if mul[0][x] != 0:
            raise StructureError(f"0 does not absorb element {x}")
    vertices = tuple(x for x in range(1, n)
                     if any(mul[x][y] == 0 for y in range(1, n)))
    adjacency = tuple(
        tuple(x != y and mul[x][y] == 0 for y in vertices) for x in vertices)
    return ZdGraph(vertices=vertices, adjacency=adjacency)


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class GraphMetrics:
    diameter: float | None      # None for the empty graph, inf when disconnected
    girth: int | None           # None when acyclic
    clique_number: int
    component_count: int
    eccentricity: tuple[float, ...]
    triangle_free: bool
    quadrilateral_free: bool
    maximal_cliques: tuple[tuple[int, ...], ...]   # vertex positions, sorted


def _bfs(nbrs, s: int):
    """Distances from s, and the shortest cycle closed by a non-tree edge.

    The minimum of the cycle lengths over all sources is the girth
    (Itai & Rodeh 1978); the cycle is None when the search meets none.
    """
    dist = [INF] * len(nbrs)
    parent = [None] * len(nbrs)
    dist[s] = 0
    cycle = None
    queue = [s]
    while queue:
        nxt = []
        for v in queue:
            for w in nbrs[v]:
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    nxt.append(w)
                elif w != parent[v]:
                    length = dist[v] + dist[w] + 1
                    if cycle is None or length < cycle:
                        cycle = length
        queue = nxt
    return dist, cycle


def _maximal_cliques(masks):
    """Every maximal clique, by Bron-Kerbosch with Tomita's pivot.

    masks[v] is the neighbourhood of v as a bit set; a clique comes out as
    its sorted vertex positions, and the list is sorted.
    """
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
    pivot = max(_members(p | x), key=lambda u: (masks[u] & p).bit_count())
    for v in _members(p & ~masks[pivot]):
        _expand(masks, cliques, clique | 1 << v, p & masks[v], x & masks[v])
        p &= ~(1 << v)
        x |= 1 << v


def _members(mask: int):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def graph_metrics(G: ZdGraph) -> GraphMetrics:
    if G.n == 0:
        return GraphMetrics(diameter=None, girth=None, clique_number=0,
                            component_count=0, eccentricity=(),
                            triangle_free=True, quadrilateral_free=True,
                            maximal_cliques=())
    nbrs = [G.neighbors(v) for v in range(G.n)]
    masks = [sum(1 << w for w in nb) for nb in nbrs]
    dist, cycles = zip(*(_bfs(nbrs, s) for s in range(G.n)))
    ecc = tuple(map(max, dist))
    cliques = _maximal_cliques(masks)
    clique_number = max(map(len, cliques))
    return GraphMetrics(
        diameter=max(ecc),                  # inf exactly when disconnected
        girth=min((c for c in cycles if c is not None), default=None),
        clique_number=clique_number,
        # v starts a component when no earlier vertex reaches it
        component_count=sum(all(dist[u][v] == INF for u in range(v))
                            for v in range(G.n)),
        eccentricity=ecc,
        triangle_free=clique_number < 3,
        # a C4 subgraph exists iff some vertex pair has two common neighbours
        quadrilateral_free=not any(
            (masks[x] & masks[y]).bit_count() >= 2
            for x in range(G.n) for y in range(x + 1, G.n)),
        maximal_cliques=cliques,
    )


# ---------------------------------------------------------------------------
# Shape classification


@dataclass(frozen=True)
class GraphShape:
    tag: str            # empty | single-vertex | complete | star | two-star |
                        # complete-bipartite | forest | cyclic
    params: tuple[int, ...]
    metrics: GraphMetrics

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
            return f"cyclic girth={self.metrics.girth}"
        return self.tag


def _star_params(G: ZdGraph):
    degs = [G.degree(i) for i in range(G.n)]
    centers = [i for i, d in enumerate(degs) if d == G.n - 1]
    if len(centers) == 1 and all(d == 1 for i, d in enumerate(degs)
                                 if i != centers[0]):
        return (G.n - 1,)
    return None


def _two_star_params(G: ZdGraph):
    for u, v in G.edges():
        rest = [w for w in range(G.n) if w not in (u, v)]
        if not rest:
            continue
        ok = True
        for w in rest:
            nb = G.neighbors(w)
            if nb != [u] and nb != [v]:
                ok = False
                break
        if ok:
            r = sum(1 for w in rest if G.neighbors(w) == [u])
            s = len(rest) - r
            if r >= 1 and s >= 1:
                return tuple(sorted((r, s)))
    return None


def _complete_bipartite_params(G: ZdGraph):
    """(m, n) with m <= n when G is K_{m,n}, else None.

    G is complete bipartite exactly when the neighbourhoods N(v) take two
    values: no v lies in its own N(v), so the vertices sharing one value
    form the other value, and those two sets are the parts.
    """
    parts = {frozenset(G.neighbors(v)) for v in range(G.n)}
    return tuple(sorted(map(len, parts))) if len(parts) == 2 else None


def classify_shape(G: ZdGraph) -> GraphShape:
    """Deterministic shape tag under a fixed precedence; K2 reports as complete."""
    m = graph_metrics(G)
    nedges = len(G.edges())
    if G.n == 0:
        return GraphShape("empty", (), m)
    if G.n == 1:
        return GraphShape("single-vertex", (), m)
    if nedges == G.n * (G.n - 1) // 2:
        return GraphShape("complete", (G.n,), m)
    params = _star_params(G)
    if params and params[0] >= 2:
        return GraphShape("star", params, m)
    params = _two_star_params(G)
    if params:
        return GraphShape("two-star", params, m)
    params = _complete_bipartite_params(G)
    if params:
        return GraphShape("complete-bipartite", params, m)
    if nedges == G.n - m.component_count:
        return GraphShape("forest", (), m)
    return GraphShape("cyclic", (), m)


# ---------------------------------------------------------------------------
# DOT export


def export_dot(G: ZdGraph, labels) -> str:
    def quote(x):
        return '"' + labels[x].replace('"', '\\"') + '"'

    lines = ["graph zd {"]
    for i in range(G.n):
        if G.degree(i) == 0:
            lines.append(f"  {quote(G.vertices[i])};")
    for i, j in G.edges():
        lines.append(f"  {quote(G.vertices[i])} -- {quote(G.vertices[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
