import itertools
import random
import re
from collections import Counter, deque
from dataclasses import replace

import pytest

from conftest import assert_ball_is_fresh
from halolab.errors import BudgetError, ContractViolation
from halolab.gf import GF
from halolab.groups import CyclicGroup, HeisenbergGroup, SymmetricGroup, ZdGroup, ball
from halolab.embeddings import GroupMorphism, shuffler_endomorphism
from halolab.halo import commutativity_constant, enumerate_block, make_halo
from halolab import groups, lampgraph
from halolab.lampgraph import (FiniteGraph, YStarGraph, _bigstep_distances,
                               _check_blocks_commute, _construction_map,
                               _lamplighter_size, _net_metric_pairs, _refine,
                               build_Ystar, check_iso_to_lamplighter, complete_graph,
                               graph_from_edges, graph_isomorphism,
                               greedy_net, lamplighter_graph, net_check_counts,
                               net_is_maximal_in_interior, net_is_separated,
                               net_metric_check, path_graph)

Z = ZdGroup(1, False)
Z2 = ZdGroup(2, False)
H3 = HeisenbergGroup()


def test_graph_invariants():
    with pytest.raises(ContractViolation):
        graph_from_edges([(0, 0)])
    g = path_graph(3)
    assert g.degree(1) == 2 and g.degree(0) == 1


def test_lamplighter_graph_counts_and_degrees():
    L = lamplighter_graph(path_graph(2), path_graph(2), 2)
    assert len(L.graph.vertices) == 2 ** 2 * 2
    assert L.degree_check()


def test_lamplighter_graph_trivial_cases():
    B, A = path_graph(2), path_graph(3)
    L0 = lamplighter_graph(B, A, 0)
    ok, _ = graph_isomorphism(L0.graph, A)
    assert ok
    single = FiniteGraph((0,), frozenset(), 0)
    L1 = lamplighter_graph(B, single, 1)
    ok, _ = graph_isomorphism(L1.graph, B)
    assert ok


def test_lamplighter_graph_budget():
    # 1 + 5 * 3 configs fit (80 vertices); the 21st config of support 2 makes 105
    with pytest.raises(BudgetError, match=r"\(100\): reached 21 lamp configs "
                       r"x \|A\| = 5, 105 vertices, at support size 2"):
        lamplighter_graph(complete_graph(4), complete_graph(5), 5,
                          vertex_budget=100)


def test_an_empty_base_graph_is_rejected_by_build_and_check():
    empty = FiniteGraph((), frozenset())
    with pytest.raises(ContractViolation, match="A needs at least one vertex"):
        lamplighter_graph(complete_graph(2), empty, 1)
    with pytest.raises(ContractViolation, match="A needs at least one vertex"):
        check_iso_to_lamplighter(empty, complete_graph(2), empty)


def test_greedy_net_on_z():
    net = greedy_net(Z, 12, 1)
    assert set(net.X0) == {(3 * k,) for k in range(-4, 5)}
    assert net_is_separated(net)
    assert net_is_maximal_in_interior(net)
    # x ~ y iff 0 < |x - y| <= 2D+5 = 7: the pairs 3 and 6 apart
    assert len(net.graph.edges) == 8 + 7


def test_greedy_net_d0_alternating():
    net = greedy_net(Z, 6, 0)
    assert set(net.X0) == {(2 * k,) for k in range(-3, 4)}
    assert net_is_separated(net) and net_is_maximal_in_interior(net)


@pytest.mark.parametrize("radius, D", [(-1, 1), (3, -1)])
def test_greedy_net_rejects_a_negative_radius_or_D(radius, D):
    """A negative radius gave an empty net whose checks passed vacuously."""
    with pytest.raises(ContractViolation, match="radius >= 0 and D >= 0"):
        greedy_net(Z, radius, D)


def test_net_maximality_counts_points_at_distance_exactly_D_plus_2():
    # hand-built D = 0 nets in Z (separation 2), interior Ball(4)
    def net(*X0):
        return replace(greedy_net(Z, 6, 0), X0=tuple((x,) for x in X0))

    assert net_is_maximal_in_interior(net(0, 4, -4))  # 2 and -2 at distance 2
    assert not net_is_maximal_in_interior(net(0, 6, -6))  # 3 at distance 3


def test_greedy_net_small_radius():
    net = greedy_net(Z, 1, 1)
    assert net.X0 == ((0,),)


def test_net_graph_joins_net_points_within_2D_plus_5_and_is_built_once():
    for group, radius, D in ((Z, 12, 1), (Z2, 7, 1), (H3, 4, 0)):
        net = greedy_net(group, radius, D)
        near = ball(group, 2 * D + 5).lengths
        G = net.graph
        assert G.vertices == net.X0 and G.basepoint == net.X0[0]
        assert G.edges == {frozenset((x, y)) for x in net.X0 for y in net.X0
                           if x != y and group.multiply(group.invert(x), y) in near}
        assert net.graph is G and G.adjacency is G.adjacency
        # the cached map changes neither equality nor hashing
        assert G == FiniteGraph(G.vertices, G.edges, G.basepoint)
        assert hash(G) == hash(FiniteGraph(G.vertices, G.edges, G.basepoint))


def test_net_metric_bounds_on_z_and_z2():
    for group, radius in ((Z, 6), (Z2, 6), (Z, 5), (Z2, 9)):
        for D in (0, 1):
            net = greedy_net(group, radius, D)
            assert net_is_separated(net)
            assert net_metric_check(net), (group.spec, radius, D)
            checked, skipped, failed = _net_metric_pairs(net)[1]
            assert checked > 0 and failed == 0, (group.spec, radius, D)


def _per_source_d_big(net):
    """Oracle: bigstep distances without left-invariance or the closed
    form.  One BFS per interior net point x, right-multiplying by bigstep
    generators from x itself, inside the window Ball(r_int + kL) with
    k = ceil(2 r_int / L).  The window holds every bigstep geodesic between
    interior points x and y.  A geodesic word for x^-1 y has length at most
    |x| + |y| <= 2 r_int; cut into pieces of length at most L, each a
    geodesic and so never the identity, it is a bigstep word of at most k
    letters, so d_big(x, y) <= k.  Each bigstep moves at most L, so a
    bigstep geodesic from x stays within kL of x, and x lies within r_int
    of the identity.  A source stops once it has labelled every y it is
    asked for; BFS labels are final, so this changes no distance."""
    g = net.group
    L = 2 * net.D + 5
    b = ball(g, net.radius)
    interior_r = net.radius - net.separation
    pts = [x for x in net.X0 if b.lengths[x] <= interior_r]
    dX = _bigstep_distances(net, pts)
    steps = sorted(s for s, l in ball(g, L).lengths.items() if l)  # Ball(L) minus e
    k = -(-2 * interior_r // L)
    window = set(ball(g, interior_r + k * L).elements)
    out = {}
    for x in pts:
        want = {y for y in pts if (x, y) in dX}
        d = {x: 0}
        frontier = [x]
        while frontier and not want <= d.keys():
            nxt = []
            for u in frontier:
                for s in steps:
                    w = g.multiply(u, s)
                    if w in window and w not in d:
                        d[w] = d[u] + 1
                        nxt.append(w)
            frontier = nxt
        for y in want:
            out[(x, y)] = d[y]
    failed = sum(1 for xy, dby in out.items() if not dby <= dX[xy] <= L * dby)
    return out, len(pts), failed


def _assert_matches_oracle(net):
    d_big, (checked, skipped, failed) = _net_metric_pairs(net)
    want, n_pts, want_failed = _per_source_d_big(net)
    assert d_big == want
    assert checked == len(want)
    assert checked + skipped == n_pts ** 2
    assert failed == want_failed
    assert net_metric_check(net) == (len(want) == n_pts ** 2 and want_failed == 0)
    return checked, skipped, failed


@pytest.mark.parametrize("group, radius, D", [
    (Z, 5, 0), (Z, 5, 1), (Z, 6, 0), (Z, 6, 1), (Z, 12, 0), (Z, 12, 1),
    (Z2, 6, 0), (Z2, 6, 1),
    # non-abelian: d_big(x, y) is d_big(e, x^-1 y), not d_big(e, y x^-1)
    (SymmetricGroup(5), 10, 0), (H3, 3, 0), (H3, 4, 1),
])
def test_net_metric_pairs_match_per_source_oracle(group, radius, D):
    checked, skipped, failed = _assert_matches_oracle(greedy_net(group, radius, D))
    assert checked > 0 and failed == 0


def test_net_metric_pairs_z2_radius_7_counts():
    assert _assert_matches_oracle(greedy_net(Z2, 7, 1)) == (81, 0, 0)


@pytest.mark.parametrize("r_int, want", [(10, (4, 0, 0)), (12, (4, 0, 0))])
def test_net_metric_pairs_joined_only_through_the_rim(r_int, want):
    # Two interior points (r_int, 0) and (-r_int, 0), joined only through a
    # chain of net points just outside the interior, at d_big =
    # ceil(2 r_int / 5): 4 at r_int 10, 5 at r_int 12.
    rim = [(r_int + 1 - k, k) for k in range(r_int + 2)]
    rim += [(-a, b) for a, b in rim if a]
    net = replace(greedy_net(Z2, 0, 0), radius=r_int + 2,
                  X0=((r_int, 0), (-r_int, 0), *rim))
    assert _assert_matches_oracle(net) == want
    assert _net_metric_pairs(net)[0][((r_int, 0), (-r_int, 0))] == -(-2 * r_int // 5)


def test_net_metric_check_fails_on_interior_points_the_net_graph_does_not_join():
    # (5, 0) and (-5, 0) are interior (r_int = 6) but 10 > L = 5 apart, with
    # no net point between them: d_X0 is infinite, so the upper bound fails.
    net = replace(greedy_net(Z2, 0, 0), radius=8, X0=((5, 0), (-5, 0)))
    assert _assert_matches_oracle(net) == (2, 2, 0)
    assert net_metric_check(net) is False


@pytest.mark.parametrize("group", [
    Z2, H3, SymmetricGroup(4), make_halo("wreath", CyclicGroup(2), Z)])
@pytest.mark.parametrize("L", [5, 7])
def test_bigstep_distance_is_length_over_L_rounded_up(group, L):
    # BFS from the identity over Ball(L) minus the identity, unconfined, in
    # BFS order of the steps; it stops once Ball(L + 4) is labelled.
    lengths = ball(group, L + 4).lengths
    e = group.identity()
    steps = [s for s in ball(group, L).elements if s != e]
    # the net graph joins e to exactly these steps
    net = greedy_net(group, 0, (L - 5) // 2)
    assert {s for s in ball(group, L + 1).elements
            if replace(net, X0=(e, s)).graph.edges} == set(steps)
    d = {e: 0}
    queue = deque([e])
    todo = set(lengths) - {e}
    while todo and queue:
        u = queue.popleft()
        for s in steps:
            w = group.multiply(u, s)
            if w not in d:
                d[w] = d[u] + 1
                queue.append(w)
                todo.discard(w)
    assert all(d[z] == -(-n // L) for z, n in lengths.items())


def test_net_metric_check_fails_on_a_long_detour():
    # Hand-made net on Z^2, D = 0 (L = 5): (3, 0) and (-3, 0) are 6 apart,
    # so d_big = 2, but the net graph joins them only up one column, across
    # the top and down the other: 12 hops > L * d_big = 10.  Every other
    # pair keeps the bound.
    up = [(3, k) for k in range(0, 26, 5)]
    X0 = (*up, (0, 25), *[(-a, b) for a, b in reversed(up)])
    net = replace(greedy_net(Z2, 0, 0), radius=30, X0=X0)
    d_big, counts = _net_metric_pairs(net)
    assert counts == (169, 0, 2)
    dX = _bigstep_distances(net, net.X0)
    assert {xy for xy, dby in d_big.items() if dX[xy] > 5 * dby} == {
        ((3, 0), (-3, 0)), ((-3, 0), (3, 0))}
    assert d_big[((3, 0), (-3, 0))] == 2 and dX[((3, 0), (-3, 0))] == 12
    assert net_metric_check(net) is False


# -- one ball per group: the checks against a fresh ball per check ----------

def _fresh_ball_verdicts(net):
    """Oracle: every net check and count, and the net graph, with a fresh
    Cayley ball per check and a net-graph BFS from every net point, as
    before the group kept its ball."""
    g = net.group
    sep = net.separation
    X = net.X0
    near = set(ball(g, sep - 1).elements)
    separated = all(g.multiply(g.invert(X[i]), X[j]) not in near
                    for i in range(len(X)) for j in range(i + 1, len(X)))
    lengths = ball(g, max(net.radius, sep)).lengths
    interior = [v for v, l in lengths.items() if l <= net.radius - sep]
    maximal = all(any(lengths.get(g.multiply(g.invert(v), x), sep + 1) <= sep for x in X)
                  for v in interior)
    L = 2 * net.D + 5
    steps = set(ball(g, L).elements) - {g.identity()}
    adj = {x: [y for y in X if g.multiply(g.invert(x), y) in steps] for x in X}
    edges = {frozenset((x, y)) for x in X for y in adj[x]}
    dX = {}
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
        dX.update(((src, y), dv) for y, dv in d.items())
    interior_r = net.radius - sep
    lengths = ball(g, max(net.radius, 2 * interior_r)).lengths
    pts = [x for x in X if lengths.get(x, interior_r + 1) <= interior_r]
    d_big = {(x, y): -(-lengths[g.multiply(g.invert(x), y)] // L)
             for x in pts for y in pts if (x, y) in dX}
    failed = sum(1 for xy, dby in d_big.items() if not dby <= dX[xy] <= L * dby)
    pairs = (d_big, (len(d_big), len(pts) ** 2 - len(d_big), failed))
    metric = pairs[1][1] == 0 and failed == 0
    counts = (len(X) * (len(X) - 1) // 2, len(interior))
    return separated, maximal, metric, pairs, counts, edges


def _verdicts(net):
    return (net_is_separated(net), net_is_maximal_in_interior(net), net_metric_check(net),
            _net_metric_pairs(net), net_check_counts(net), net.graph.edges)


class _ZWithTwos(ZdGroup):
    """Z generated by +-1 and +-2: the elements of Z, shorter lengths."""

    def __init__(self):
        super().__init__(1)
        self._gens = [(1,), (-1,), (2,), (-2,)]


class _KingZ2(ZdGroup):
    """Z^2 generated by the eight king moves: the elements of Z^2, l-infinity
    lengths."""

    def __init__(self):
        super().__init__(2)
        self._gens = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]


class _H3WithCentre(HeisenbergGroup):
    """H3 generated by x, y and the central z, each with its inverse."""

    def generators(self):
        return super().generators() + [(0, 0, 1), (0, 0, -1)]

    def step(self, a, i):
        return self.multiply(a, self.generators()[i])


# the net graph's edges, and those of its copy with the other group's generators
_COPY_EDGES = {"Z": (15, 26), "Z^2": (126, 182), "H3": (1468, 2113)}


@pytest.mark.parametrize("group, radius, D, other", [
    (Z, 12, 1, _ZWithTwos()), (Z2, 7, 1, _KingZ2()), (H3, 4, 0, _H3WithCentre())])
def test_net_checks_share_one_ball_and_match_a_fresh_ball_per_check(group, radius, D, other):
    net = greedy_net(group, radius, D)
    got = _verdicts(net)
    assert got == _fresh_ball_verdicts(net)
    assert got[:3] == (True, True, True)
    # each copy reads the ball of its own group, though the net's has grown;
    # the copy with new generators builds its net graph on them
    assert (len(net.graph.edges),
            len(replace(net, group=other).graph.edges)) == _COPY_EDGES[group.spec]
    copies = [replace(net, X0=net.X0[::2]), replace(net, radius=radius + 2),
              replace(net, radius=radius - 2), replace(net, group=other)]
    for copy in copies:
        assert _verdicts(copy) != got and _verdicts(copy) == _fresh_ball_verdicts(copy)
    # the new generators bring net points closer than D+2, which the net's
    # own group would not show
    assert not net_is_separated(copies[-1])
    assert _verdicts(net) == got
    assert_ball_is_fresh(group.cayley_ball)
    assert_ball_is_fresh(other.cayley_ball)


def test_greedy_net_grows_one_ball_for_its_checks(monkeypatch):
    made = []
    init = groups.Ball.__init__

    def spy(self, *args):
        made.append(self)
        init(self, *args)

    for group, radius, D in ((ZdGroup(1), 12, 1), (ZdGroup(2), 7, 1), (HeisenbergGroup(), 4, 0)):
        monkeypatch.setattr(groups.Ball, "__init__", spy)
        made.clear()
        net = greedy_net(group, radius, D)
        _verdicts(net)
        assert made == [group.cayley_ball]
        _verdicts(replace(net, radius=radius + 1))
        replace(net, X0=net.X0[::2]).graph
        assert made == [group.cayley_ball]
        monkeypatch.undo()
        assert_ball_is_fresh(group.cayley_ball)


def _morphism_outputs(g):
    double = GroupMorphism(g, g, lambda v: (2 * v[0], 2 * v[1]))
    # no homomorphism: its counterexample is the first failing pair drawn
    # from the radius-3 ball, so it names the elements drawn from
    square = GroupMorphism(g, g, lambda v: (v[0] * abs(v[0]), v[1]))
    end = shuffler_endomorphism(g)
    return (double.check(pairs=50, radius=3), square.check(pairs=50, radius=3),
            end.not_surjective_witness, end.check(50, 2))


def _net_outputs(g):
    net = greedy_net(g, 5, 0)
    return net.X0, _verdicts(net)


# each reads the word lengths of the Z^2 handle g, to its own radius
_BALL_READERS = {
    "net": _net_outputs,
    "base_word": lambda g: [make_halo("shuffler", None, g).base_word(x)
                            for x in ((1, -2), (-4, 4), (3, 0))],
    "morphism": _morphism_outputs,
    "commutativity": lambda g: commutativity_constant(make_halo("shuffler", None, g), 2),
}


@pytest.mark.parametrize("order", list(itertools.permutations(_BALL_READERS)),
                         ids="-".join)
def test_readers_in_any_order_grow_one_ball_equal_to_a_fresh_ball(order):
    """Net checks, base words, morphism checks and the commutativity
    constant grow one group's ball in uneven steps (to radius 6, 8, 4 and
    4); each output equals its value on a new handle, whose ball is fresh,
    and the shared ball equals a fresh ball of its radius."""
    g = ZdGroup(2)
    for name in order:
        assert _BALL_READERS[name](g) == _BALL_READERS[name](ZdGroup(2)), name
    assert g.cayley_ball.radius == 8
    assert_ball_is_fresh(g.cayley_ball)


def test_ystar_shuffler_example():
    sh = make_halo("shuffler", None, Z)
    net = greedy_net(Z, 3, 1)
    assert set(net.X0) == {(0,), (3,), (-3,)}
    Y = build_Ystar(sh, net, (1,), 3)
    assert len(Y.vertices) == 2 ** 3 * 3
    ok, mapping = check_iso_to_lamplighter(Y, complete_graph(2), complete_graph(3))
    assert ok
    # mapping is a genuine graph isomorphism
    L = lamplighter_graph(complete_graph(2), complete_graph(3), 3)
    adjY, adjL = Y.adjacency, L.graph.adjacency
    for u in Y.vertices:
        assert {mapping[v] for v in adjY[u]} == adjL[mapping[u]]
    wrong, _ = check_iso_to_lamplighter(Y, complete_graph(3), complete_graph(3))
    assert not wrong


def test_ystar_wreath_is_lamplighter_chunk():
    wr = make_halo("wreath", CyclicGroup(2), Z)
    net = greedy_net(Z, 2, 0)
    Y = build_Ystar(wr, net, (1,), 2)
    # blocks have 4 elements (C2 at each of two sites); net graph on {0,+-2}
    net_edges = [((0,), (2,)), ((0,), (-2,)), ((-2,), (2,))]
    A = graph_from_edges(net_edges, basepoint=(0,))
    ok, _ = check_iso_to_lamplighter(Y, complete_graph(4), A)
    assert ok


def test_ystar_single_site_is_block_cayley_graph():
    sh = make_halo("shuffler", None, Z)
    net = greedy_net(Z, 1, 1)
    Y = build_Ystar(sh, net, (1,), 1)
    assert len(Y.vertices) == 2 and len(Y.edges) == 1


def _two_sided_ystar(halo, net, s0, budget=10 ** 5):
    """Oracle: Y* as built before each edge was made once.  Blocks sorted
    by repr, the payload commutation loop, the vertex budget, and every
    edge made from both of its ends."""
    base = halo.base
    sites = list(net.X0)
    blocks = {x: sorted(enumerate_block(halo, {x, base.multiply(x, s0)}, budget), key=repr)
              for x in sites}
    assert _payload_blocks_commute(halo, [blocks[x] for x in sites])
    sizes = [len(blocks[x]) for x in sites]
    n_vertices = len(sites)
    for s in sizes:
        n_vertices *= s
    if n_vertices > budget:
        raise BudgetError(f"Y* vertex budget exceeded ({n_vertices} > {budget})")
    moves = net.graph.adjacency
    vertices, edges = [], set()
    for rho in itertools.product(*[range(s) for s in sizes]):
        for xi, x in enumerate(sites):
            v = (rho, x)
            vertices.append(v)
            for y in moves[x]:
                edges.add(frozenset((v, (rho, y))))
            for j in range(sizes[xi]):
                if j != rho[xi]:
                    edges.add(frozenset((v, (rho[:xi] + (j,) + rho[xi + 1:], x))))
    return tuple(vertices), frozenset(edges), (tuple(0 for _ in sites), sites[0]), sizes[0]


@pytest.mark.parametrize("family, fiber", [
    ("shuffler", None), ("wreath", CyclicGroup(2)), ("juggler", 2),
    ("designer", CyclicGroup(2))])
@pytest.mark.parametrize("radius", [3, 6])
def test_ystar_makes_each_edge_once_and_matches_the_two_sided_build(family, fiber, radius):
    halo = make_halo(family, fiber, Z)
    net = greedy_net(Z, radius, 1)
    try:
        want = _two_sided_ystar(halo, net, (1,))
    except BudgetError as exc:  # juggler and designer at radius 6
        with pytest.raises(BudgetError, match=re.escape(str(exc))):
            build_Ystar(halo, net, (1,), radius)
        return
    Y = build_Ystar(halo, net, (1,), radius)
    assert (Y.vertices, Y.edges, Y.basepoint, Y.block_size) == want
    assert Y.net_graph == net.graph


def _payload_blocks_commute(halo, blocks):
    """Oracle: a b == b a by lamp_compose for every a, b in blocks at
    distinct sites."""
    return all(halo.lamp_compose(a, b) == halo.lamp_compose(b, a)
               for i, block in enumerate(blocks) for other in blocks[i + 1:]
               for a in block for b in other)


ALL_FAMILIES = [("wreath", CyclicGroup(2), Z), ("shuffler", None, Z), ("juggler", 2, Z),
                ("designer", CyclicGroup(2), Z), ("cloner", GF(2), Z),
                ("upcloner", GF(2), ZdGroup(1, True))]
OVERLAPPING = [((0,), (1,)), ((0,), (2,), (-2,))]  # with s0 = (1,) and (2,)


def _blocks(halo, X0, s0):
    base = halo.base
    return [sorted(enumerate_block(halo, {x, base.multiply(x, s0)}), key=repr) for x in X0]


def _commute_verdict(halo, blocks):
    try:
        _check_blocks_commute(halo, blocks)
    except ContractViolation:
        return False
    return True


@pytest.mark.parametrize("family, fiber, base", ALL_FAMILIES + [("cloner", GF(3), Z)])
def test_coded_commutation_check_matches_the_payload_loop(family, fiber, base):
    halo = make_halo(family, fiber, base)
    cases = [(greedy_net(base, 3, 1).X0, (1,)), (greedy_net(base, 4, 0).X0, (1,)),
             (OVERLAPPING[0], (1,)), (OVERLAPPING[1], (2,))]
    verdicts = []
    for X0, s0 in cases:
        blocks = _blocks(halo, X0, s0)
        verdicts.append(_commute_verdict(halo, blocks))
        assert verdicts[-1] == _payload_blocks_commute(halo, blocks), (X0, s0)
    assert verdicts[:2] == [True, True]  # disjoint blocks commute
    # overlapping blocks commute only where the lamps do: wreath's
    assert verdicts[2:] == [family == "wreath"] * 2


@pytest.mark.parametrize("family, fiber, base", [("shuffler", None, Z), ("cloner", GF(3), Z)])
def test_ystar_over_overlapping_blocks_raises(family, fiber, base):
    halo = make_halo(family, fiber, base)
    net = replace(greedy_net(base, 1, 1), X0=OVERLAPPING[0])
    with pytest.raises(ContractViolation, match="failed to commute"):
        build_Ystar(halo, net, (1,), 1)


@pytest.mark.parametrize("family, fiber, base, coded", [
    *(case + (True,) for case in ALL_FAMILIES), ("cloner", GF(3), Z, False)])
def test_coded_commutation_check_composes_no_payload(family, fiber, base, coded, monkeypatch):
    halo = make_halo(family, fiber, base)
    calls = []
    compose = halo.lamp_compose

    def spy(a, b):
        calls.append((a, b))
        return compose(a, b)

    monkeypatch.setattr(halo, "lamp_compose", spy)
    _check_blocks_commute(halo, _blocks(halo, greedy_net(base, 3, 1).X0, (1,)))
    assert (not calls) is coded, family


def test_graph_isomorphism_basics():
    g = path_graph(5)
    ok, m = graph_isomorphism(g, g)
    assert ok and all(g.degree(v) == g.degree(m[v]) for v in g.vertices)
    h = complete_graph(5)
    assert graph_isomorphism(g, h) == (False, None)
    # same degree sequence, non-isomorphic: C6 vs two triangles
    c6 = graph_from_edges([(i, (i + 1) % 6) for i in range(6)])
    two_triangles = graph_from_edges(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert graph_isomorphism(c6, two_triangles) == (False, None)


def _whole_class_isomorphism(G1, G2):
    """Oracle: the search graph_isomorphism made before it visited G1
    breadth-first.  Vertices go in key order (rarest colour, highest
    degree, str), and each tries its whole colour class of G2, testing
    that mapped neighbours go to neighbours and mapped non-neighbours to
    non-neighbours."""
    if len(G1.vertices) != len(G2.vertices) or len(G1.edges) != len(G2.edges):
        return False, None
    a1, a2 = G1.adjacency, G2.adjacency
    c1 = _refine(a1, {v: len(a1[v]) for v in a1})
    c2 = _refine(a2, {v: len(a2[v]) for v in a2})
    if Counter(c1.values()) != Counter(c2.values()):
        return False, None
    by_color2 = {}
    for v, c in c2.items():
        by_color2.setdefault(c, []).append(v)
    order = sorted(G1.vertices,
                   key=lambda v: (len(by_color2[c1[v]]), -len(a1[v]), str(v)))
    mapping, used = {}, set()

    def fits(v, w):
        if w in used:
            return False
        nw, mapped = a2[w], 0
        for u in a1[v]:
            if u in mapping:
                if mapping[u] not in nw:
                    return False
                mapped += 1
        return len(used.intersection(nw)) == mapped

    tried = [0]
    while tried:
        i = len(tried) - 1
        if i == len(order):
            return True, dict(mapping)
        v = order[i]
        if v in mapping:
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


def _assert_isomorphism(G1, G2, mapping):
    """mapping is a bijection V1 -> V2 whose image of E1 is exactly E2.
    The map on vertex pairs is then injective, so it sends the non-edges
    onto the non-edges too."""
    assert mapping.keys() == set(G1.vertices)
    assert set(mapping.values()) == set(G2.vertices)
    assert len(G1.vertices) == len(G2.vertices)
    assert {frozenset(mapping[v] for v in e) for e in G1.edges} == G2.edges


def _assert_same_verdict_as_oracle(G1, G2):
    ok, mapping = graph_isomorphism(G1, G2)
    want, want_mapping = _whole_class_isomorphism(G1, G2)
    assert ok == want
    if ok:
        _assert_isomorphism(G1, G2, mapping)
        _assert_isomorphism(G1, G2, want_mapping)
    else:
        assert mapping is None
    return ok


@pytest.mark.parametrize("family, fiber, k", [
    ("shuffler", None, 2), ("wreath", CyclicGroup(2), 4)])
@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_ystar_isomorphism_matches_whole_class_search(family, fiber, k, radius):
    net = greedy_net(Z, radius, 1)
    Y = build_Ystar(make_halo(family, fiber, Z), net, (1,), radius)
    m = len(net.X0)
    assert len(net.graph.edges) == m * (m - 1) // 2  # complete at these radii
    for kk, want in ((k, True), (3, False)):
        for A in (net.graph, complete_graph(m)):
            L = lamplighter_graph(complete_graph(kk), A, m).graph
            assert _assert_same_verdict_as_oracle(Y, L) is want
            ok, mapping = check_iso_to_lamplighter(Y, complete_graph(kk), A)
            assert ok is want
            if ok:
                _assert_isomorphism(Y, L, mapping)
            else:
                assert mapping is None


def _searched_sizes(monkeypatch):
    """Spy on graph_isomorphism: the list it fills with the vertex counts
    of each pair of graphs it is called on."""
    seen = []
    search = lampgraph.graph_isomorphism

    def spy(G1, G2, *args):
        seen.append((len(G1.vertices), len(G2.vertices)))
        return search(G1, G2, *args)

    monkeypatch.setattr(lampgraph, "graph_isomorphism", spy)
    return seen


def _wreath_ystar(radius):
    """The net over Z at D = 1 and the Y* of wreath(C2, Z) over it."""
    net = greedy_net(Z, radius, 1)
    return net, build_Ystar(make_halo("wreath", CyclicGroup(2), Z), net, (1,), radius)


@pytest.mark.parametrize("radius, k", [(3, 4), (6, 4)])
def test_ystar_certificate_searches_only_the_small_graphs(monkeypatch, radius, k):
    net, Y = _wreath_ystar(radius)
    assert isinstance(Y, YStarGraph) and (Y.net_graph, Y.block_size) == (net.graph, k)
    seen = _searched_sizes(monkeypatch)
    ok, mapping = check_iso_to_lamplighter(Y, complete_graph(k), net.graph)
    assert ok and len(mapping) == len(Y.vertices)
    m = len(net.X0)
    assert seen and max(map(max, seen)) <= max(m, k)


def test_ystar_with_a_lamp_edge_swapped_for_a_non_edge_gets_the_search_verdict(monkeypatch):
    net, Y = _wreath_ystar(3)
    # rho changed at a site other than the cursor's
    non_edge = frozenset({((0, 0, 0), net.X0[0]), ((0, 1, 0), net.X0[0])})
    lamp = frozenset({((0, 0, 0), net.X0[2]), ((0, 0, 2), net.X0[2])})
    assert lamp in Y.edges and non_edge not in Y.edges
    bad = replace(Y, edges=(Y.edges - {lamp}) | {non_edge})
    assert len(bad.edges) == len(Y.edges)
    assert (bad.net_graph, bad.block_size) == (Y.net_graph, Y.block_size)
    B, A = complete_graph(4), net.graph
    assert _construction_map(bad, B, A) is None
    seen = _searched_sizes(monkeypatch)
    L = lamplighter_graph(B, A, len(A.vertices)).graph
    assert check_iso_to_lamplighter(bad, B, A) == _whole_class_isomorphism(bad, L) == (False, None)
    assert (len(Y.vertices), len(L.vertices)) in seen


def test_ystar_with_any_diagonal_non_edge_is_not_certified():
    # a pair that changes rho at one site and moves the cursor is no edge of
    # L, whichever of its ends the check reads first
    net, Y = _wreath_ystar(3)
    B, A = complete_graph(4), net.graph
    lamp = frozenset({((0, 0, 0), net.X0[2]), ((0, 0, 2), net.X0[2])})
    for j, b in itertools.permutations(range(3), 2):
        for value in (1, 2, 3):
            changed = tuple(value if i == j else 0 for i in range(3))
            for rho, rho2 in (((0, 0, 0), changed), (changed, (0, 0, 0))):
                non_edge = frozenset({(rho, net.X0[j]), (rho2, net.X0[b])})
                bad = replace(Y, edges=(Y.edges - {lamp}) | {non_edge})
                assert len(bad.edges) == len(Y.edges)
                assert _construction_map(bad, B, A) is None
                assert check_iso_to_lamplighter(bad, B, A) == (False, None)


def test_ystar_with_a_lamp_edge_dropped_is_refused_by_its_edge_count():
    net, Y = _wreath_ystar(3)
    lamp = frozenset({((0, 0, 0), net.X0[0]), ((1, 0, 0), net.X0[0])})
    dropped = replace(Y, edges=Y.edges - {lamp})
    assert len(dropped.edges) == len(Y.edges) - 1
    assert check_iso_to_lamplighter(dropped, complete_graph(4), net.graph) == (False, None)


def test_a_plain_lamplighter_graph_goes_through_the_search(monkeypatch):
    B, A = complete_graph(2), complete_graph(3)
    L = lamplighter_graph(B, A, 3).graph
    assert type(L) is FiniteGraph and _construction_map(L, B, A) is None
    seen = _searched_sizes(monkeypatch)
    ok, mapping = check_iso_to_lamplighter(L, B, A)
    assert ok
    _assert_isomorphism(L, L, mapping)
    assert seen == [(24, 24)]


@pytest.mark.parametrize("B, A", [
    (path_graph(2), path_graph(3)), (complete_graph(3), path_graph(4)),
    (path_graph(3), complete_graph(4)), (complete_graph(4), FiniteGraph((0,), frozenset(), 0))])
def test_lamplighter_size_counts_the_built_graph(B, A):
    m, k = len(A.vertices), len(B.vertices)
    for cap in range(m + 1):
        L = lamplighter_graph(B, A, cap).graph
        assert _lamplighter_size(B, A, cap, 10 ** 5) == len(L.vertices)
    # the untruncated graph: the edge count check_iso_to_lamplighter reads
    assert len(L.vertices) == m * k ** m
    assert len(L.edges) == k ** m * len(A.edges) + m * k ** (m - 1) * len(B.edges)


def test_check_iso_to_lamplighter_raises_the_budgets_of_build_and_search(monkeypatch):
    """The budgets bind only the fallback's build and search: a Y* the
    construction map certifies passes whatever its size, and counts that
    differ from L's refuse Y before anything is built."""
    Y = build_Ystar(make_halo("shuffler", None, Z), greedy_net(Z, 3, 1), (1,), 3)
    L = lamplighter_graph(complete_graph(2), complete_graph(3), 3).graph
    assert len(Y.vertices) == len(L.vertices) == 24
    ok, mapping = check_iso_to_lamplighter(Y, complete_graph(2), complete_graph(3),
                                           size_budget=20)
    assert ok
    _assert_isomorphism(Y, L, mapping)
    # L of K4 over K9 has 9 * 4^9 vertices, past the build's budget
    assert check_iso_to_lamplighter(Y, complete_graph(4), complete_graph(9)) == (False, None)
    with pytest.raises(BudgetError, match=r"\(20\): the graphs have 24 and 24 vertices"):
        check_iso_to_lamplighter(L, complete_graph(2), complete_graph(3), size_budget=20)
    # the fallback builds L under lamplighter_graph's vertex budget
    build = lampgraph.lamplighter_graph
    monkeypatch.setattr(lampgraph, "lamplighter_graph",
                        lambda B, A, cap: build(B, A, cap, vertex_budget=20))
    with pytest.raises(BudgetError, match=r"\(20\): reached 7 lamp configs "
                       r"x \|A\| = 3, 21 vertices, at support size 2"):
        check_iso_to_lamplighter(L, complete_graph(2), complete_graph(3))
    assert check_iso_to_lamplighter(Y, complete_graph(2), complete_graph(3))[0]
    with pytest.raises(ContractViolation, match="basepoint"):
        check_iso_to_lamplighter(Y, replace(complete_graph(2), basepoint=None),
                                 complete_graph(3))


def test_ystar_wreath_radius_6_over_an_incomplete_net_graph():
    wr = make_halo("wreath", CyclicGroup(2), Z)
    net = greedy_net(Z, 6, 1)
    A = net.graph
    assert len(A.vertices) == 5 and len(A.edges) < 10  # not complete
    Y = build_Ystar(wr, net, (1,), 6)
    assert len(Y.vertices) == 4 ** 5 * 5
    ok, mapping = check_iso_to_lamplighter(Y, complete_graph(4), A)
    assert ok
    _assert_isomorphism(Y, lamplighter_graph(complete_graph(4), A, 5).graph, mapping)
    assert check_iso_to_lamplighter(Y, complete_graph(3), A) == (False, None)


def _prism(n):
    return graph_from_edges([(i, (i + 1) % n) for i in range(n)]
                            + [(n + i, n + (i + 1) % n) for i in range(n)]
                            + [(i, n + i) for i in range(n)])


def _moebius_ladder(n):
    return graph_from_edges([(i, (i + 1) % (2 * n)) for i in range(2 * n)]
                            + [(i, i + n) for i in range(n)])


def _relabelled(G, rng):
    names = list(range(len(G.vertices)))
    rng.shuffle(names)
    new = dict(zip(G.vertices, (("r", i) for i in names)))
    edges = sorted(tuple(sorted(new[v] for v in e)) for e in G.edges)
    rng.shuffle(edges)
    return graph_from_edges(edges, extra_vertices=sorted(new.values()))


def _random_graph(rng, n, p):
    return graph_from_edges([(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < p], extra_vertices=range(n))


def _edge_swapped(G, rng, swaps):
    """G after `swaps` random double-edge swaps ab, cd -> ad, cb: the
    degree of every vertex stays."""
    edges = {tuple(sorted(e)) for e in G.edges}
    done = 0
    while done < swaps:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = (tuple(sorted((a, d))), tuple(sorted((c, b))))
        if len({a, b, c, d}) < 4 or any(e in edges for e in new):
            continue
        edges -= {(a, b), tuple(sorted((c, d)))}
        edges |= set(new)
        done += 1
    return graph_from_edges(sorted(edges), extra_vertices=G.vertices)


def test_graph_isomorphism_matches_whole_class_search_on_small_pairs():
    # same degree sequence, non-isomorphic
    c6 = graph_from_edges([(i, (i + 1) % 6) for i in range(6)])
    two_triangles = graph_from_edges(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert _assert_same_verdict_as_oracle(c6, two_triangles) is False
    assert _assert_same_verdict_as_oracle(two_triangles, c6) is False
    for n in (3, 4, 5, 6):  # 3-regular, colour refinement sees one class
        assert _assert_same_verdict_as_oracle(_prism(n), _moebius_ladder(n)) is False
        assert _assert_same_verdict_as_oracle(
            _prism(n), _relabelled(_prism(n), random.Random(n))) is True


@pytest.mark.parametrize("seed", range(8))
def test_graph_isomorphism_matches_whole_class_search_on_random_pairs(seed):
    rng = random.Random(seed)
    G = _random_graph(rng, rng.randint(6, 14), rng.choice((0.2, 0.35, 0.5)))
    assert _assert_same_verdict_as_oracle(G, _relabelled(G, rng)) is True
    # 3-regular graphs on 2n vertices with equal degree sequences
    n = rng.randint(5, 7)
    R = _edge_swapped(_prism(n), rng, 3 * n)
    S = _edge_swapped(R, rng, 2)
    assert _assert_same_verdict_as_oracle(R, _relabelled(R, rng)) is True
    _assert_same_verdict_as_oracle(R, _relabelled(S, rng))
    _assert_same_verdict_as_oracle(S, _moebius_ladder(n))


def test_graph_isomorphism_random_pairs_include_non_isomorphic_ones():
    verdicts = []
    for seed in range(8):
        rng = random.Random(seed)
        R = _edge_swapped(_prism(7), rng, 21)
        verdicts.append(_assert_same_verdict_as_oracle(R, _edge_swapped(R, rng, 2)))
    assert verdicts.count(False) >= 4


def test_graph_isomorphism_long_path_does_not_recurse():
    # deeper than the default recursion limit: one backtracking level per vertex
    n = 1100
    g = path_graph(n)
    relabel = {i: ("v", (7 * i) % n) for i in range(n)}
    h = graph_from_edges([(relabel[i], relabel[i + 1]) for i in range(n - 1)])
    ok, m = graph_isomorphism(g, h)
    assert ok and sorted(m) == list(range(n))
    assert all(frozenset(m[v] for v in e) in h.edges for e in g.edges)


def test_graph_isomorphism_budget():
    with pytest.raises(BudgetError, match=r"\(2\): the graphs have 3 and 4 vertices"):
        graph_isomorphism(path_graph(3), path_graph(4), size_budget=2)


def test_export_edge_list(tmp_path):
    g = path_graph(3)
    out = tmp_path / "graph.txt"
    g.export_edge_list(str(out))
    assert out.read_text() == "0 1\n1 2\n"
    assert (tmp_path / "graph.txt.labels.json").exists()
