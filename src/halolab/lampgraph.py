"""Lamplighter graphs of two finite graphs, maximal separated nets in a
Cayley ball, the subgraph Y* of a halo product built over such a net, and
an exact graph-isomorphism check (degree refinement + backtracking).

Y* is built as the lamplighter graph of K_k over its net graph, and
:func:`check_iso_to_lamplighter` certifies it through that construction
map, (rho, x) -> (y -> rho_y, x), in O(V + E) and without building the
lamplighter graph: the map is a bijection onto its vertices, sends every
Y* edge to a lamp or move edge, and the edge counts agree.  The search
runs only on the m-vertex net graphs, and on whatever the certificate
does not cover (a plain graph, a B that is not complete, a map that
fails), so every verdict stays exact.

:func:`greedy_net`, the net graph and the net checks
(:func:`net_is_separated`, :func:`net_is_maximal_in_interior`,
:func:`net_metric_check`) read word lengths from the group's one Cayley
ball (``GroupHandle.cayley_ball``), growing it only past its radius, so
a ``dataclasses.replace`` copy reads the ball of its own group; the
metric check runs its net-graph BFS from the interior net points alone.
:func:`build_Ystar` makes each edge once and checks that blocks at
distinct sites commute on the family's lamp codes
(``HaloGroup._lamp_codes``).
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import BudgetError, ContractViolation
from .groups import GroupHandle
from .halo import HaloGroup, enumerate_block

LAMPLIGHTER_VERTEX_BUDGET = 10 ** 5


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

    @functools.cached_property
    def adjacency(self) -> Dict[Any, FrozenSet]:
        """Each vertex's neighbours; built on first use and kept."""
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


def _lamplighter_size(B: FiniteGraph, A: FiniteGraph, support_cap: int,
                      vertex_budget: int) -> int:
    """The vertex count of lamplighter_graph(B, A, support_cap), raising
    what it raises, before any of it is built: ContractViolation when B
    has no basepoint or A no vertex (a cursor needs one), BudgetError at
    the first lamp config (in order of support size) that takes configs
    x |A| past vertex_budget."""
    if B.basepoint is None:
        raise ContractViolation("B needs a basepoint to define supp f")
    m = len(A.vertices)
    if not m:
        raise ContractViolation("A needs at least one vertex for the cursor")
    non_base = sum(1 for b in B.vertices if b != B.basepoint)
    configs = 0
    for k in range(min(support_cap, m) + 1):
        configs += math.comb(m, k) * non_base ** k
        if configs * m > vertex_budget:
            reached = vertex_budget // m + 1
            raise BudgetError(
                f"vertex budget exceeded ({vertex_budget}): reached "
                f"{reached} lamp configs x |A| = {m}, "
                f"{reached * m} vertices, at support size {k}")
    return configs * m


def lamplighter_graph(B: FiniteGraph, A: FiniteGraph, support_cap: int,
                      vertex_budget: int = LAMPLIGHTER_VERTEX_BUDGET) -> LamplighterGraph:
    """The lamplighter graph of B over A, truncated to |supp f| <= cap."""
    _lamplighter_size(B, A, support_cap, vertex_budget)
    b0 = B.basepoint
    non_base = [b for b in B.vertices if b != b0]
    a_order = {a: i for i, a in enumerate(A.vertices)}
    configs = [tuple(sorted(zip(sites, values), key=lambda p: a_order[p[0]]))
               for k in range(min(support_cap, len(A.vertices)) + 1)
               for sites in itertools.combinations(A.vertices, k)
               for values in itertools.product(non_base, repeat=k)]

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

    @property
    def separation(self) -> int:
        return self.D + 2

    def lengths(self, radius: int) -> Dict[Any, int]:
        """Word lengths of the group out to at least the given radius, from
        its cayley_ball, grown only when it is smaller.  The ball may be
        larger: an element absent from it is longer than its radius, which
        is at least the given one."""
        return self.group.cayley_ball.grow(radius).lengths

    @functools.cached_property
    def graph(self) -> FiniteGraph:
        """The net graph on X0, based at X0[0]: x ~ y iff
        0 < d_group(x, y) = |x^-1 y| <= 2D+5.  Built on first use and kept;
        the relation is symmetric, as |z^-1| = |z|."""
        g = self.group
        L = 2 * self.D + 5
        lengths = self.lengths(L)
        X = self.X0
        edges = frozenset(frozenset((x, y)) for i, x in enumerate(X) for y in X[i + 1:]
                          if 0 < lengths.get(g.multiply(g.invert(x), y), L + 1) <= L)
        return FiniteGraph(X, edges, X[0])


def greedy_net(group: GroupHandle, radius: int, D: int) -> SeparatedNet:
    """Greedy (D+2)-separated net over Ball(radius), insertion in BFS order
    (length, then element order); maximal within the ball interior.  The
    group's cayley_ball, grown to radius max(radius, 2D+5), serves the net
    and its separation test, and the net's checks and graph read it too.
    ContractViolation for a negative radius or D, whose net would be empty
    or its checks vacuous."""
    if radius < 0 or D < 0:
        raise ContractViolation(f"greedy_net needs radius >= 0 and D >= 0, not {radius}, {D}")
    lengths = group.cayley_ball.grow(max(radius, 2 * D + 5)).lengths
    order = sorted((g for g, l in lengths.items() if l <= radius),
                   key=lambda g: (lengths[g], g))
    sep = D + 2
    X0 = []
    for v in order:
        vi = group.invert(v)
        # d(v, x) < sep iff v^-1 x is in the ball with length < sep
        if all(lengths.get(group.multiply(vi, x), sep) >= sep for x in X0):
            X0.append(v)
    return SeparatedNet(group, D, radius, tuple(X0))


def net_is_separated(net: SeparatedNet) -> bool:
    """Every two net points are at distance >= D+2."""
    g = net.group
    sep = net.separation
    lengths = net.lengths(sep - 1)
    X = net.X0
    return all(lengths.get(g.multiply(g.invert(X[i]), X[j]), sep) >= sep
               for i in range(len(X)) for j in range(i + 1, len(X)))


def _interior_points(net: SeparatedNet) -> List:
    """The ball points at distance <= radius - (D+2) from the identity, in
    BFS order; none when the radius is below D+2."""
    interior_r = net.radius - net.separation
    pts = []
    for v, l in net.lengths(max(interior_r, 0)).items():
        if l > interior_r:  # BFS order: every later point is longer
            break
        pts.append(v)
    return pts


def net_is_maximal_in_interior(net: SeparatedNet) -> bool:
    """Every ball point at distance <= radius - (D+2) from the identity is
    within D+2 of some net point."""
    g = net.group
    sep = net.separation
    lengths = net.lengths(sep)
    for v in _interior_points(net):
        vi = g.invert(v)
        if not any(lengths.get(g.multiply(vi, x), sep + 1) <= sep for x in net.X0):
            return False
    return True


def net_check_counts(net: SeparatedNet) -> Tuple[int, int]:
    """What the two net checks examine: the pairs of net points that
    :func:`net_is_separated` tests, and the interior points that
    :func:`net_is_maximal_in_interior` tests.  A check that examines
    none holds vacuously."""
    m = len(net.X0)
    return m * (m - 1) // 2, len(_interior_points(net))


def _bigstep_distances(net: SeparatedNet, sources: Iterable) -> Dict[Tuple, int]:
    """Distances in the net graph (see SeparatedNet.graph) from each of the
    given net points, one BFS per source: (source, y) -> distance for
    every y the source reaches."""
    adj = net.graph.adjacency
    dist = {}
    for src in sources:
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


def _net_metric_pairs(net: SeparatedNet) -> Tuple[Dict[Tuple, int], Tuple[int, int, int]]:
    """The pairs behind :func:`net_metric_check`, with their counts.

    Returns ``(d_big, (checked, skipped, failed))``.  ``d_big`` maps every
    ordered pair (x, y) of interior net points that the net graph joins to
    its bigstep distance.  Those pairs are checked, and failed when the
    bound breaks; the other interior pairs, which the net graph does not
    join, are skipped, so checked + skipped is the number of ordered
    interior pairs.  The net-graph distances come from a BFS from each
    interior net point alone.

    The bigstep distance has a closed form: d_big(x, y) = ceil(|x^-1 y| / L)
    with L = 2D + 5.  The bigstep generators are Ball(L) minus the
    identity, so k of them move at most kL.  Conversely, a geodesic word
    for x^-1 y cut into pieces of length <= L is a bigstep word, as each
    piece is itself a geodesic and so never the identity.  For interior
    x, y, |x^-1 y| <= 2 r_int (r_int the interior radius), so the group's
    ball, grown to radius max(radius, 2 r_int), holds every length read
    here.
    """
    g = net.group
    L = 2 * net.D + 5
    interior_r = net.radius - net.separation
    lengths = net.lengths(max(net.radius, 2 * interior_r))
    # a point the ball lacks is longer than its radius, so not interior
    pts = [x for x in net.X0 if lengths.get(x, interior_r + 1) <= interior_r]
    dX = _bigstep_distances(net, pts)
    d_big = {}
    for x in pts:
        xi = g.invert(x)
        for y in pts:
            if (x, y) in dX:
                d_big[(x, y)] = -(-lengths[g.multiply(xi, y)] // L)
    failed = sum(1 for xy, dby in d_big.items() if not dby <= dX[xy] <= L * dby)
    return d_big, (len(d_big), len(pts) ** 2 - len(d_big), failed)


def net_metric_check(net: SeparatedNet) -> bool:
    """For net pairs (both in the ball interior): with d_big the bigstep
    word metric of the group and d_X0 the net-graph metric,
    d_big <= d_X0 <= (2D+5) * d_big.  A pair the net graph does not join
    has d_X0 infinite and breaks the upper bound, so the check holds only
    when every interior pair is joined and none fails;
    :func:`_net_metric_pairs` counts them.
    """
    _, (_, skipped, failed) = _net_metric_pairs(net)
    return skipped == 0 and failed == 0


# ---------------------------------------------------------------------------
# the subgraph Y* of a halo product

@dataclass(frozen=True)
class YStarGraph(FiniteGraph):
    """Y* together with what built it: the net graph, whose vertex order
    is the site order of every rho, and the block size k, the size of the
    block at the first site (every translated block has it; the
    certificate in :func:`check_iso_to_lamplighter` checks the vertex set
    rather than trusting this)."""

    net_graph: FiniteGraph = field(kw_only=True)
    block_size: int = field(kw_only=True)


def build_Ystar(halo: HaloGroup, net: SeparatedNet, s0, radius: int,
                budget: int = 10 ** 5) -> YStarGraph:
    """Vertices (rho, x): rho assigns to each net site y an element of the
    translated two-point block L({y, y*s0}); x a net site.  Edges: change
    rho at the current site x by multiplication with a non-identity block
    element (lamp edge), or move x to a net site within 2D+5 (move edge).
    Each edge is made once: a move edge from its earlier site in net
    order, a lamp edge from its smaller block index.  ``radius`` is read
    by nothing.

    Every pair of block elements at distinct sites must commute; a
    violation falsifies large-scale commutativity and raises (see
    :func:`_check_blocks_commute`).
    """
    base = halo.base
    if s0 == base.identity():
        raise ContractViolation("s0 must differ from the identity")
    sites = list(net.X0)
    blocks = [sorted(enumerate_block(halo, {x, base.multiply(x, s0)}, budget), key=repr)
              for x in sites]
    _check_blocks_commute(halo, blocks)

    sizes = [len(block) for block in blocks]
    n_vertices = len(sites)
    for s in sizes:
        n_vertices *= s
    if n_vertices > budget:
        raise BudgetError(f"Y* vertex budget exceeded ({n_vertices} > {budget})")

    pos = {x: i for i, x in enumerate(sites)}
    moves = net.graph.adjacency
    later = [[y for y in moves[x] if pos[y] > xi] for xi, x in enumerate(sites)]
    vertices = []
    edges = set()
    for rho in itertools.product(*map(range, sizes)):
        for xi, x in enumerate(sites):
            v = (rho, x)
            vertices.append(v)
            for y in later[xi]:
                edges.add(frozenset((v, (rho, y))))
            for j in range(rho[xi] + 1, sizes[xi]):
                edges.add(frozenset((v, (rho[:xi] + (j,) + rho[xi + 1:], x))))
    e0 = tuple(0 for _ in sites)
    x0 = sites[0] if sites else None
    return YStarGraph(tuple(vertices), frozenset(edges),
                      (e0, x0) if sites else None,
                      net_graph=net.graph, block_size=sizes[0] if sites else 0)


def _check_blocks_commute(halo: HaloGroup, blocks: List[List]) -> None:
    """ContractViolation unless a b = b a for every a and b in blocks at
    distinct sites, checked exhaustively.  One lamp code
    (HaloGroup._lamp_codes) over all the block lamps gives each lamp its
    code and its operand, and a b = b a iff step(code(a), operand(b)) ==
    step(code(b), operand(a)): both sides code a product whose points lie
    among the blocks', where encode is injective."""
    lamps = [a for block in blocks for a in block]
    encode, operands, step = halo._lamp_codes(lamps)
    pairs = iter(zip(map(encode, lamps), operands))
    coded_blocks = [list(itertools.islice(pairs, len(block))) for block in blocks]
    for i, block in enumerate(coded_blocks):
        for other in coded_blocks[i + 1:]:
            for a, op_a in block:
                for b, op_b in other:
                    if step(a, op_b) != step(b, op_a):
                        raise ContractViolation(
                            "blocks at distinct net sites failed to commute; "
                            "this falsifies large-scale commutativity")


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
                             size_budget: int = 10 ** 4):
    """Decide Y isomorphic-to lamplighter_graph(B, A, |A|), the untruncated
    lamplighter graph; returns (True, mapping) or (False, None).

    ContractViolation when B has no basepoint or A no vertex, as
    :func:`lamplighter_graph` raises.  With m = |A| and k = |B|, that graph
    L has m k^m vertices and k^m |E(A)| + m k^(m-1) |E(B)| edges (each
    config carries A's edges as move edges, and each site, with the other
    m - 1 lamps fixed, B's edges as lamp edges).  When Y's counts differ
    from these the answer is (False, None) at once, the search's own first
    test.

    A Y* from :func:`build_Ystar` is then certified through its
    construction map, without building L (see :func:`_construction_map`).
    Everything else is decided by building L and searching: a plain
    FiniteGraph, a B that is not complete, a net graph not isomorphic to
    A, or a map that fails its check.  So every verdict is exact.  Only
    that fallback raises the budgets, as it builds L and searches.
    """
    if B.basepoint is None:
        raise ContractViolation("B needs a basepoint to define supp f")
    m, k = len(A.vertices), len(B.vertices)
    if not m:
        raise ContractViolation("A needs at least one vertex for the cursor")
    if (len(Y.vertices) != m * k ** m
            or len(Y.edges) != k ** m * len(A.edges) + m * k ** (m - 1) * len(B.edges)):
        return False, None
    mapping = _construction_map(Y, B, A)
    if mapping is not None:
        return True, mapping
    return graph_isomorphism(Y, lamplighter_graph(B, A, m).graph, size_budget)


def _construction_map(Y: FiniteGraph, B: FiniteGraph, A: FiniteGraph) -> Optional[Dict]:
    """The isomorphism Y -> L = lamplighter_graph(B, A, |A|) that built Y,
    checked in O(V + E); None when Y is no Y* or the check fails.

    For a Y* over the net graph N with block size k, and B complete on k
    vertices, the map is (rho, x) -> (sorted {(phi(y), psi(rho_y)) :
    rho_y != 0}, phi(x)), with the lamps sorted in A's vertex order as L
    stores them.  phi: N -> A is an isomorphism found by
    :func:`graph_isomorphism` on the m-vertex graphs and checked here;
    psi sends block index 0 to B's basepoint and 1, ..., k - 1 to B's other
    vertices in order.  The caller has checked |V(Y)| = |V(L)| and
    |E(Y)| = |E(L)|.  Then the map is an isomorphism when
      - Y's vertices are exactly the pairs (rho, x), rho in {0..k-1}^m and
        x a site, and their images are distinct vertices of L: a bijection;
      - every Y edge keeps rho and joins N-neighbours x, x' (its image is
        the move edge phi(x) ~ phi(x') of L), or keeps x and changes rho
        at x's site alone (its image changes the lamp at phi(x) between
        two distinct, so B-adjacent, values: a lamp edge of L).
    The map is injective on vertex pairs, so it sends E(Y) into E(L)
    injectively, and onto it as the edge counts agree.
    """
    if not isinstance(Y, YStarGraph):
        return None
    N, k = Y.net_graph, Y.block_size
    if len(B.vertices) != k or len(B.edges) != k * (k - 1) // 2:
        return None  # B is not complete on k vertices
    # no budget of its own: unequal sizes are refused before any search
    ok, phi = graph_isomorphism(N, A, max(len(N.vertices), len(A.vertices)))
    if not ok or set(phi.values()) != set(A.vertices) or (
            {frozenset(phi[x] for x in e) for e in N.edges} != A.edges):
        return None
    b0 = B.basepoint
    psi = (b0, *(b for b in B.vertices if b != b0))
    a_order = {a: i for i, a in enumerate(A.vertices)}
    sites = N.vertices
    # each site's position in rho, with its image, in A's vertex order
    lamps = sorted(((i, phi[x]) for i, x in enumerate(sites)),
                   key=lambda p: a_order[p[1]])
    mapping = {}
    for rho in itertools.product(range(k), repeat=len(sites)):
        f = tuple((a, psi[rho[i]]) for i, a in lamps if rho[i])
        for x in sites:
            mapping[(rho, x)] = (f, phi[x])
    if mapping.keys() != set(Y.vertices) or len(set(mapping.values())) != len(mapping):
        return None
    pos = {x: i for i, x in enumerate(sites)}
    moves = N.adjacency
    for e in Y.edges:
        (rho, x), (rho2, x2) = e
        if rho == rho2:
            if x2 not in moves[x]:
                return None
        else:
            i = pos[x]
            if x2 != x or rho[:i] != rho2[:i] or rho[i + 1:] != rho2[i + 1:]:
                return None
    return mapping


def graph_isomorphism(G1: FiniteGraph, G2: FiniteGraph,
                      size_budget: int = 10 ** 4):
    """Exact isomorphism by iterated degree refinement then backtracking.
    Returns (True, dict vertex1 -> vertex2) or (False, None); BudgetError
    when either graph has more than size_budget vertices.

    The search visits G1 breadth-first.  Its roots are taken in key order
    (rarest colour first, then highest degree, then ``str``), each unseen
    root starting a new component, and each vertex's neighbours are
    visited in the same key order; so every vertex but a root has a
    parent mapped before it.  A root tries its whole colour class of G2;
    any other vertex v tries only the neighbours of its parent's image
    that have v's colour, in G2's vertex order.  The search is exact:
    an isomorphism extending the partial map sends v to a neighbour of
    its parent's image, and it preserves the refined colours, which are
    canonical; so no extension is skipped.

    A candidate w fits v when w is unused and the image of each mapped
    neighbour of v is a neighbour of w.  Every edge of G1 is tested when
    its later endpoint is mapped, so a full map is an injection sending
    edges to edges.  The vertex counts are equal, so it is a bijection;
    the edge counts are equal, so it sends the edges onto the edges and
    the non-edges onto the non-edges: it is an isomorphism.
    """
    n1, n2 = len(G1.vertices), len(G2.vertices)
    if n1 > size_budget or n2 > size_budget:
        raise BudgetError(f"isomorphism size budget exceeded ({size_budget}): "
                          f"the graphs have {n1} and {n2} vertices")
    if n1 != n2 or len(G1.edges) != len(G2.edges):
        return False, None
    a1, a2 = G1.adjacency, G2.adjacency
    c1 = _refine(a1, {v: len(a1[v]) for v in a1})
    c2 = _refine(a2, {v: len(a2[v]) for v in a2})
    if Counter(c1.values()) != Counter(c2.values()):
        return False, None

    by_color2: Dict[int, List] = {}
    # w -> colour -> w's neighbours of that colour, each in by_color2 order
    near2: Dict[Any, Dict[int, List]] = {w: {} for w in a2}
    for u, c in c2.items():
        by_color2.setdefault(c, []).append(u)
        for w in a2[u]:
            near2[w].setdefault(c, []).append(u)
    # rarest colours first, then most-constrained (highest degree)
    keyed = sorted(G1.vertices,
                   key=lambda v: (len(by_color2[c1[v]]), -len(a1[v]), str(v)))
    rank = {v: i for i, v in enumerate(keyed)}
    order: List = []
    parent: Dict = {}
    for root in keyed:
        if root in parent:
            continue
        parent[root] = None
        head = len(order)
        order.append(root)
        while head < len(order):  # breadth-first over root's component
            u = order[head]
            head += 1
            for w in sorted(a1[u], key=rank.__getitem__):
                if w not in parent:
                    parent[w] = u
                    order.append(w)
    mapping: Dict = {}
    used = set()

    def fits(v, w) -> bool:
        if w in used:
            return False
        nw = a2[w]
        return all(mapping[u] in nw for u in a1[v] if u in mapping)

    # depth-first backtracking without recursion: tried[i] counts the
    # candidates already tried for order[i]; its parent, mapped at a
    # smaller depth, keeps its image while order[i] is tried
    tried = [0]
    while tried:
        i = len(tried) - 1
        if i == len(order):
            return True, dict(mapping)
        v = order[i]
        if v in mapping:  # back from a dead end below: undo this choice
            used.discard(mapping.pop(v))
        p = parent[v]
        cands = by_color2[c1[v]] if p is None else near2[mapping[p]].get(c1[v], ())
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
