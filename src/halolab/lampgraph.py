"""Lamplighter graphs of two finite graphs, maximal separated nets in a
Cayley ball, the subgraph Y* of a halo product built over such a net, and
an exact graph-isomorphism check (degree refinement + backtracking).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import BudgetError, ContractViolation
from .groups import GroupHandle, ball
from .halo import HaloGroup, enumerate_block


@dataclass(frozen=True)
class FiniteGraph:
    """Undirected finite graph; vertices are hashable canonical ids."""

    vertices: Tuple
    edges: FrozenSet[FrozenSet]
    basepoint: Optional[Any] = None

    def __post_init__(self):
        vset = set(self.vertices)
        for e in self.edges:
            if len(e) != 2:
                raise ContractViolation("self-loops are not allowed")
            if not e <= vset:
                raise ContractViolation("edge endpoint outside vertex set")
        if self.basepoint is not None and self.basepoint not in vset:
            raise ContractViolation("basepoint outside vertex set")

    @property
    def adjacency(self) -> Dict[Any, FrozenSet]:
        adj: Dict[Any, set] = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def degree(self, v) -> int:
        return len(self.adjacency[v])

    def export_edge_list(self, path: str) -> None:
        """Edge-list text `u v` per line plus a JSON vertex-label sidecar."""
        ids = {v: i for i, v in enumerate(self.vertices)}
        with open(path, "w") as fh:
            for e in sorted(self.edges, key=lambda e: sorted(ids[v] for v in e)):
                u, v = sorted(e, key=ids.get)
                fh.write(f"{ids[u]} {ids[v]}\n")
        with open(path + ".labels.json", "w") as fh:
            json.dump({str(i): repr(v) for v, i in ids.items()}, fh, indent=1)


def graph_from_edges(edges: Iterable[Tuple], extra_vertices: Iterable = (),
                     basepoint=None) -> FiniteGraph:
    vs = list(extra_vertices)
    es = set()
    for u, v in edges:
        if u == v:
            raise ContractViolation("self-loops are not allowed")
        es.add(frozenset((u, v)))
        vs.extend((u, v))
    seen = set()
    ordered = [v for v in vs if not (v in seen or seen.add(v))]
    return FiniteGraph(tuple(ordered), frozenset(es), basepoint)


def path_graph(n: int) -> FiniteGraph:
    return graph_from_edges([(i, i + 1) for i in range(n - 1)],
                            extra_vertices=range(n), basepoint=0)


def complete_graph(n: int) -> FiniteGraph:
    return graph_from_edges([(i, j) for i in range(n) for j in range(i + 1, n)],
                            extra_vertices=range(n), basepoint=0)


@dataclass(frozen=True)
class LamplighterGraph:
    """Vertices (f, a): f a finitely supported map A -> B (support measured
    against B's basepoint), a a vertex of A.  Edges: lamp edges change f
    only at a to a B-neighbor of f(a); move edges keep f and step a to an
    A-neighbor.  f is stored canonically as a sorted tuple of off-basepoint
    (site, value) pairs.
    """

    A: FiniteGraph
    B: FiniteGraph
    support_cap: int
    graph: FiniteGraph

    def degree_check(self) -> bool:
        """deg(f, a) = deg_A(a) + deg_B(f(a)) at every vertex (exact when
        support_cap >= |A|, so no truncation bites)."""
        adj = self.graph.adjacency
        b0 = self.B.basepoint
        for (f, a) in self.graph.vertices:
            fa = dict(f).get(a, b0)
            if len(adj[(f, a)]) != self.A.degree(a) + self.B.degree(fa):
                return False
        return True


def lamplighter_graph(B: FiniteGraph, A: FiniteGraph, support_cap: int,
                      vertex_budget: int = 10 ** 5) -> LamplighterGraph:
    """The lamplighter graph of B over A, truncated to |supp f| <= cap."""
    if B.basepoint is None:
        raise ContractViolation("B needs a basepoint to define supp f")
    b0 = B.basepoint
    non_base = [b for b in B.vertices if b != b0]
    a_order = {a: i for i, a in enumerate(A.vertices)}

    import itertools
    configs = []
    for k in range(min(support_cap, len(A.vertices)) + 1):
        for sites in itertools.combinations(A.vertices, k):
            for values in itertools.product(non_base, repeat=k):
                f = tuple(sorted(zip(sites, values), key=lambda p: a_order[p[0]]))
                configs.append(f)
                if len(configs) * len(A.vertices) > vertex_budget:
                    raise BudgetError(f"vertex budget exceeded ({vertex_budget})")

    config_set = set(configs)
    adjB = B.adjacency
    adjA = A.adjacency
    edges = set()
    vertices = [(f, a) for f in configs for a in A.vertices]
    for f in configs:
        fd = dict(f)
        for a in A.vertices:
            # move edges
            for a2 in adjA[a]:
                edges.add(frozenset(((f, a), (f, a2))))
            # lamp edges: change f at a to a B-neighbor of f(a)
            cur = fd.get(a, b0)
            for b2 in adjB[cur]:
                nd = dict(fd)
                if b2 == b0:
                    nd.pop(a, None)
                else:
                    nd[a] = b2
                f2 = tuple(sorted(nd.items(), key=lambda p: a_order[p[0]]))
                if f2 in config_set:
                    edges.add(frozenset(((f, a), (f2, a))))
    base = ((), A.basepoint if A.basepoint is not None else A.vertices[0])
    g = FiniteGraph(tuple(vertices), frozenset(edges), base)
    return LamplighterGraph(A, B, support_cap, g)


# ---------------------------------------------------------------------------
# separated nets

@dataclass(frozen=True)
class SeparatedNet:
    group: GroupHandle
    D: int
    radius: int
    X0: Tuple
    bigstep: Tuple  # S_{2D+5} = Ball(2D+5) minus identity

    @property
    def separation(self) -> int:
        return self.D + 2


def greedy_net(group: GroupHandle, radius: int, D: int) -> SeparatedNet:
    """Greedy (D+2)-separated net over Ball(radius), insertion in BFS order
    (length, then sort key); maximal within the ball interior."""
    b = ball(group, radius)
    order = sorted(b.elements, key=lambda g: (b.lengths[g], group.sort_key(g)))
    sep = D + 2
    near = set(ball(group, sep - 1).elements)  # d(x,y) < sep  iff  x^-1 y here
    X0 = []
    for v in order:
        vi = group.invert(v)
        if all(group.multiply(vi, x) not in near for x in X0):
            X0.append(v)
    bigs = sorted((g for g in ball(group, 2 * D + 5).elements
                   if g != group.identity()), key=group.sort_key)
    return SeparatedNet(group, D, radius, tuple(X0), tuple(bigs))


def net_is_separated(net: SeparatedNet) -> bool:
    g = net.group
    near = set(ball(g, net.separation - 1).elements)
    X = net.X0
    return all(g.multiply(g.invert(X[i]), X[j]) not in near
               for i in range(len(X)) for j in range(i + 1, len(X)))


def net_is_maximal_in_interior(net: SeparatedNet) -> bool:
    """Every ball point at distance <= radius - (D+2) from the identity is
    within D+2 of some net point."""
    g = net.group
    b = ball(g, net.radius)
    interior_r = net.radius - net.separation
    close = set(ball(g, net.separation).elements)
    for v in b.elements:
        if b.lengths[v] > interior_r:
            continue
        vi = g.invert(v)
        if not any(g.multiply(vi, x) in close for x in net.X0):
            return False
    return True


def _bigstep_distances(net: SeparatedNet) -> Dict[Tuple, int]:
    """Graph distances between net points where x ~ y iff x^-1 y is a
    bigstep generator (i.e. d_group(x, y) <= 2D+5), BFS per source."""
    g = net.group
    big = set(net.bigstep)
    X = list(net.X0)
    adj = {x: [y for y in X if y != x and g.multiply(g.invert(x), y) in big]
           for x in X}
    dist = {}
    for src in X:
        d = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in d:
                        d[w] = d[u] + 1
                        nxt.append(w)
            frontier = nxt
        for y, dv in d.items():
            dist[(src, y)] = dv
    return dist


def net_metric_check(net: SeparatedNet) -> bool:
    """For net pairs (both in the ball interior): with d_big the bigstep
    word metric of the group and d_X0 the net-graph metric,
    d_big <= d_X0 <= (2D+5) * d_big.

    d_big is computed by BFS over bigstep words inside a window large
    enough to contain geodesics between interior points.
    """
    g = net.group
    L = 2 * net.D + 5
    b = ball(g, net.radius)
    interior_r = net.radius - net.separation
    pts = [x for x in net.X0 if b.lengths[x] <= interior_r]
    dX = _bigstep_distances(net)
    # bigstep metric on the window via BFS from identity translated to x
    big = list(net.bigstep)
    window = set(ball(g, 3 * net.radius + 3 * L).elements)
    for x in pts:
        d = {x: 0}
        frontier = [x]
        while frontier and max(d[u] for u in frontier) < len(pts) + 2:
            nxt = []
            for u in frontier:
                for s in big:
                    w = g.multiply(u, s)
                    if w in window and w not in d:
                        d[w] = d[u] + 1
                        nxt.append(w)
            frontier = nxt
        for y in pts:
            if (x, y) not in dX:
                continue
            dby = d.get(y)
            if dby is None:
                continue
            if not (dby <= dX[(x, y)] <= L * dby if dby else dX[(x, y)] == 0):
                return False
    return True


# ---------------------------------------------------------------------------
# the subgraph Y* of a halo product

def build_Ystar(halo: HaloGroup, net: SeparatedNet, s0, radius: int,
                budget: int = 10 ** 5) -> FiniteGraph:
    """Vertices (rho, x): rho assigns to each net site y an element of the
    translated two-point block L({y, y*s0}); x a net site.  Edges: change
    rho at the current site x by multiplication with a non-identity block
    element (lamp edge), or move x to a net site within 2D+5 (move edge).

    Every pair of block elements at distinct sites must commute; a
    violation falsifies large-scale commutativity and raises.
    """
    base = halo.base
    if s0 == base.identity():
        raise ContractViolation("s0 must differ from the identity")
    sites = list(net.X0)
    blocks = {}
    for x in sites:
        pair = {x, base.multiply(x, s0)}
        blocks[x] = sorted(enumerate_block(halo, pair, budget), key=repr)
    # commutation across distinct sites (exhaustive at this truncation)
    for i, x in enumerate(sites):
        for y in sites[i + 1:]:
            for a in blocks[x]:
                for b in blocks[y]:
                    if halo.lamp_compose(a, b) != halo.lamp_compose(b, a):
                        raise ContractViolation(
                            "blocks at distinct net sites failed to commute; "
                            "this falsifies large-scale commutativity")

    import itertools
    sizes = [len(blocks[x]) for x in sites]
    n_vertices = len(sites)
    for s in sizes:
        n_vertices *= s
    if n_vertices > budget:
        raise BudgetError(f"Y* vertex budget exceeded ({n_vertices} > {budget})")

    idx_ranges = [range(s) for s in sizes]
    big = set(net.bigstep)
    moves = {x: [y for y in sites if y != x and
                 base.multiply(base.invert(x), y) in big] for x in sites}
    vertices = []
    edges = set()
    for rho in itertools.product(*idx_ranges):
        for xi, x in enumerate(sites):
            v = (rho, x)
            vertices.append(v)
            for y in moves[x]:
                edges.add(frozenset((v, (rho, y))))
            for j in range(len(blocks[x])):
                if j == rho[xi]:
                    continue
                rho2 = rho[:xi] + (j,) + rho[xi + 1:]
                edges.add(frozenset((v, (rho2, x))))
    e0 = tuple(0 for _ in sites)
    x0 = sites[0] if sites else None
    return FiniteGraph(tuple(vertices), frozenset(edges),
                       (e0, x0) if sites else None)


# ---------------------------------------------------------------------------
# exact graph isomorphism: color refinement + backtracking

def _refine(adj: Dict, colors: Dict) -> Dict:
    while True:
        sig = {v: (colors[v], tuple(sorted(colors[w] for w in adj[v])))
               for v in adj}
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in adj}
        if new == colors:
            return colors
        colors = new


def check_iso_to_lamplighter(Y: FiniteGraph, B: FiniteGraph, A: FiniteGraph,
                             support_cap: Optional[int] = None,
                             size_budget: int = 10 ** 4):
    """Decide Y isomorphic-to lamplighter_graph(B, A, cap); returns
    (True, mapping) or (False, None)."""
    cap = len(A.vertices) if support_cap is None else support_cap
    L = lamplighter_graph(B, A, cap)
    return graph_isomorphism(Y, L.graph, size_budget)


def graph_isomorphism(G1: FiniteGraph, G2: FiniteGraph,
                      size_budget: int = 10 ** 4):
    """Exact isomorphism by iterated degree refinement then backtracking.
    Returns (True, dict vertex1 -> vertex2) or (False, None)."""
    if len(G1.vertices) > size_budget or len(G2.vertices) > size_budget:
        raise BudgetError(f"isomorphism size budget exceeded ({size_budget})")
    if len(G1.vertices) != len(G2.vertices) or len(G1.edges) != len(G2.edges):
        return False, None
    a1, a2 = G1.adjacency, G2.adjacency
    c1 = _refine(a1, {v: len(a1[v]) for v in a1})
    c2 = _refine(a2, {v: len(a2[v]) for v in a2})
    from collections import Counter
    if Counter(c1.values()) != Counter(c2.values()):
        return False, None

    by_color2: Dict[int, List] = {}
    for v, c in c2.items():
        by_color2.setdefault(c, []).append(v)
    # match rarest colors first, then most-constrained (highest degree)
    order = sorted(G1.vertices,
                   key=lambda v: (len(by_color2[c1[v]]), -len(a1[v]), str(v)))
    mapping: Dict = {}
    used = set()

    def fits(v, w) -> bool:
        if w in used:
            return False
        for u in a1[v]:
            if u in mapping and mapping[u] not in a2[w]:
                return False
        # also: mapped non-neighbors must stay non-neighbors
        return all((u in a1[v]) == (mu in a2[w]) for u, mu in mapping.items())

    # depth-first backtracking without recursion: tried[i] counts the
    # candidates already tried for order[i], in by_color2 order
    tried = [0]
    while tried:
        i = len(tried) - 1
        if i == len(order):
            return True, dict(mapping)
        v = order[i]
        if v in mapping:  # back from a dead end below: undo this choice
            used.discard(mapping.pop(v))
        cands = by_color2[c1[v]]
        k = tried[i]
        while k < len(cands) and not fits(v, cands[k]):
            k += 1
        if k == len(cands):
            tried.pop()
            continue
        mapping[v] = cands[k]
        used.add(cands[k])
        tried[i] = k + 1
        tried.append(0)
    return False, None
