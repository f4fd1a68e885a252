import pytest

from halolab.errors import BudgetError, ContractViolation
from halolab.gf import GF
from halolab.groups import CyclicGroup, ZdGroup
from halolab.halo import make_halo
from halolab.lampgraph import (FiniteGraph, build_Ystar,
                               check_iso_to_lamplighter, complete_graph,
                               graph_from_edges, graph_isomorphism,
                               greedy_net, lamplighter_graph,
                               net_is_maximal_in_interior, net_is_separated,
                               net_metric_check, path_graph)

Z = ZdGroup(1, False)
Z2 = ZdGroup(2, False)


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
    with pytest.raises(BudgetError):
        lamplighter_graph(complete_graph(4), complete_graph(5), 5,
                          vertex_budget=100)


def test_greedy_net_on_z():
    net = greedy_net(Z, 12, 1)
    assert set(net.X0) == {(3 * k,) for k in range(-4, 5)}
    assert net_is_separated(net)
    assert net_is_maximal_in_interior(net)
    assert len(net.bigstep) == 14  # Ball(7) minus identity in Z


def test_greedy_net_d0_alternating():
    net = greedy_net(Z, 6, 0)
    assert set(net.X0) == {(2 * k,) for k in range(-3, 4)}
    assert net_is_separated(net) and net_is_maximal_in_interior(net)


def test_greedy_net_small_radius():
    net = greedy_net(Z, 1, 1)
    assert net.X0 == ((0,),)


def test_net_metric_bounds_on_z_and_z2():
    for group, radius in ((Z, 6), (Z2, 6), (Z, 5)):
        for D in (0, 1):
            net = greedy_net(group, radius, D)
            assert net_is_separated(net)
            assert net_metric_check(net), (group.spec, radius, D)


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
    with pytest.raises(BudgetError):
        graph_isomorphism(path_graph(3), path_graph(3), size_budget=2)


def test_export_edge_list(tmp_path):
    g = path_graph(3)
    out = tmp_path / "graph.txt"
    g.export_edge_list(str(out))
    assert out.read_text() == "0 1\n1 2\n"
    assert (tmp_path / "graph.txt.labels.json").exists()
