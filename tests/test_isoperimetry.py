import itertools
import math
import random
from fractions import Fraction

import pytest

from halolab.errors import BudgetError, ContractViolation
from halolab.gf import GF
from halolab.groups import CyclicGroup, SymmetricGroup, ZdGroup, ball, make_group
from halolab.halo import make_halo
from halolab.isoperimetry import (FiniteFunction, SubsetWitness,
                                  _NeighbourTable, _beats, _carry_forward,
                                  _connected_subsets, almost_invariant_lift,
                                  boundary,
                                  folner_function, gradient_ratio,
                                  power_transform, power_transform_bound,
                                  product_boundary, profile_exact,
                                  profile_heuristic, spectral_refine)

Z = ZdGroup(1, False)
Z2 = ZdGroup(2, False)


def test_boundary_examples():
    w = boundary(Z, [(0,)])
    assert w.boundary == {(-1,), (1,)} and w.ratio == Fraction(1, 2)
    w = boundary(Z, [(0,), (1,), (2,)])
    assert w.boundary == {(-1,), (3,)} and w.ratio == Fraction(3, 2)
    w = boundary(Z2, [(i, j) for i in range(3) for j in range(3)])
    assert len(w.boundary) == 12 and w.ratio == Fraction(3, 4)


def test_boundary_empty_set_rejected():
    with pytest.raises(ContractViolation):
        boundary(Z, [])


def test_boundary_of_whole_finite_group_is_empty():
    C5 = CyclicGroup(5)
    w = boundary(C5, C5.elements())
    assert w.boundary == frozenset() and w.ratio is None
    assert w.ratio_value == math.inf


def test_gradient_ratio_examples():
    f = FiniteFunction({(0,): Fraction(1)}, 1)
    assert gradient_ratio(Z, f) == 4
    C6 = CyclicGroup(6)
    const = FiniteFunction({g: Fraction(3) for g in C6.elements()}, 1)
    assert gradient_ratio(C6, const) == 0
    f2 = FiniteFunction({(0,): 1.0}, 2)
    assert abs(gradient_ratio(Z, f2) - 2.0) < 1e-12


def test_gradient_ratio_indicator_relates_to_boundary():
    rng = random.Random(3)
    window = sorted(ball(Z2, 3).elements)
    S = len(Z2.generators())
    for _ in range(20):
        A = frozenset(rng.sample(window, rng.randint(1, 8)))
        f = FiniteFunction({g: Fraction(1) for g in A}, 1)
        cut = gradient_ratio(Z2, f) * len(A) / 2  # directed cut edge count
        w = boundary(Z2, A)
        assert len(w.boundary) <= cut <= S * len(w.boundary)


def test_profile_exact_on_z():
    pts = profile_exact(Z, 10, 11)
    for pt in pts:
        assert pt.exact
        assert pt.value == Fraction(pt.n, 2)
        # stored witness recomputes to the stored value
        w = boundary(Z, pt.witness.A)
        assert w.ratio == pt.value


def test_profile_exact_against_unordered_enumeration_oracle():
    """Second implementation: plain unordered subset enumeration over the
    ball, no connectivity pruning."""
    n_max, radius = 7, 7
    pts = profile_exact(Z, n_max, radius)
    window = sorted(ball(Z, radius).elements)
    best = [Fraction(0)] * (n_max + 1)
    for k in range(1, n_max + 1):
        for A in itertools.combinations(window, k):
            w = boundary(Z, A)
            r = w.ratio if w.ratio is not None else math.inf
            if r > best[k]:
                best[k] = r
    running = Fraction(0)
    for pt in pts:
        running = max(running, best[pt.n])
        assert pt.value == running


def test_profile_exact_truncated_keeps_witnesses_as_lower_bounds():
    full = [Fraction(1, 4), Fraction(1, 3), Fraction(3, 7), Fraction(1, 2),
            Fraction(5, 8), Fraction(2, 3), Fraction(7, 10)]
    assert [(pt.value, pt.exact) for pt in profile_exact(Z2, 7, 6)] == \
        [(v, True) for v in full]
    pts = profile_exact(Z2, 7, 6, budget=5000)
    assert [pt.n for pt in pts] == list(range(1, 8))
    for pt, true_value in zip(pts, full):
        assert not pt.exact and pt.witness is not None
        A = pt.witness.A
        assert (0, 0) in A and len(A) <= pt.n
        reached, frontier = {(0, 0)}, [(0, 0)]
        while frontier:
            g = frontier.pop()
            for s in Z2.generators():
                h = Z2.multiply(g, s)
                if h in A and h not in reached:
                    reached.add(h)
                    frontier.append(h)
        assert reached == A
        assert boundary(Z2, A).ratio == pt.value <= true_value


# Reference search: frozenset subsets and boundary() per visited set, no
# counters.  profile_exact must match it, truncated searches included.

def _reference_connected_subsets(adj, v0, n_max, budget):
    count = 0

    def rec(S, cand, banned):
        nonlocal count
        count += 1
        if count > budget:
            raise BudgetError(f"connected-subset budget exceeded ({budget})")
        yield S
        if len(S) == n_max:
            return
        local_banned = set(banned)
        for i, u in enumerate(cand):
            newS = S | {u}
            seen = set(newS) | local_banned | set(cand[i + 1:])
            ext = cand[i + 1:] + [w for w in adj[u] if w not in seen]
            yield from rec(newS, ext, frozenset(local_banned))
            local_banned.add(u)

    yield from rec(frozenset([v0]), list(adj[v0]), frozenset())


def _reference_window_adjacency(group, radius):
    window = sorted(ball(group, radius).elements, key=group.sort_key)
    wset = set(window)
    return {v: [w for w in sorted((group.multiply(v, s) for s in group.generators()),
                                  key=group.sort_key) if w in wset]
            for v in window}


def _reference_profile_exact(group, n_max, radius, budget):
    adj = _reference_window_adjacency(group, radius)
    best = {}
    exact = radius >= n_max - 1
    try:
        for S in _reference_connected_subsets(adj, group.identity(), n_max, budget):
            w = boundary(group, S)
            if _beats(group, w, best.get(len(S))):
                best[len(S)] = w
    except BudgetError:
        exact = False
    return _carry_forward(group, best, n_max, "exact", exact)


# (group, n_max, radius); the finite groups' windows are the whole group,
# so the search reaches a set with empty boundary (ratio +infinity).
SEARCH_CASES = [("Z^2", 6, 5), ("H3", 6, 5), ("wreath(C2, Z)", 5, 4),
                ("C5", 6, 2), ("Sym3", 7, 3)]


def _search_group(spec):
    return SymmetricGroup(3) if spec == "Sym3" else make_group(spec)


@pytest.mark.parametrize("spec, n_max, radius", SEARCH_CASES)
def test_boundary_counters_match_boundary_on_every_visited_set(spec, n_max, radius):
    group = _search_group(spec)
    table = _NeighbourTable(group, radius)
    v0 = table.elements.index(group.identity())
    reference = _reference_connected_subsets(
        _reference_window_adjacency(group, radius), group.identity(), n_max, 10 ** 6)
    visited = [(frozenset(table.elements[i] for i in S), bnd)
               for S, bnd in _connected_subsets(table, v0, n_max, 10 ** 6)]
    assert [A for A, _ in visited] == list(reference)  # same sets, same order
    for A, bnd in visited:
        assert bnd == len(boundary(group, A).boundary)
    assert len(visited) > n_max
    assert sum(bnd == 0 for _, bnd in visited) == (1 if group.is_finite() else 0)


@pytest.mark.parametrize("spec, n_max, radius", SEARCH_CASES)
@pytest.mark.parametrize("budget", [1, 777, 5000, 2 * 10 ** 6])
def test_profile_exact_equals_reference_search(spec, n_max, radius, budget):
    group = _search_group(spec)
    assert profile_exact(group, n_max, radius, budget=budget) == \
        _reference_profile_exact(group, n_max, radius, budget)


def test_profile_exact_monotone_and_folner_inverse():
    pts = profile_exact(Z2, 8, 8)
    values = [pt.value for pt in pts]
    assert values == sorted(values)
    # generalized-inverse relation on the computed range
    for pt in pts:
        if pt.value and pt.value >= 2:
            assert folner_function(pts, Fraction(1, 2)) <= pt.n


def test_folner_on_z():
    pts = profile_exact(Z, 8, 9)
    assert folner_function(pts, Fraction(1, 2)) == 4
    assert folner_function(pts, Fraction(1, 100)) is None


def test_profile_heuristic_greedy_beats_square():
    pts = profile_heuristic(Z2, 9, "greedy")
    assert pts[-1].value >= Fraction(3, 4)


def test_profile_heuristic_witnesses_are_valid():
    for method in ("greedy", "anneal"):
        pts = profile_heuristic(Z2, 6, method, seed=2)
        for pt in pts:
            w = boundary(Z2, pt.witness.A)
            assert w.ratio == pt.value


def test_heuristic_matches_exact_at_n1():
    exact = profile_exact(Z2, 1, 1)
    for method in ("greedy", "anneal"):
        pts = profile_heuristic(Z2, 1, method)
        assert pts[0].value == exact[0].value


def test_anneal_deterministic():
    a = profile_heuristic(Z, 5, "anneal", seed=9, steps=400)
    b = profile_heuristic(Z, 5, "anneal", seed=9, steps=400)
    assert [(p.n, p.value, sorted(p.witness.A)) for p in a] == \
        [(p.n, p.value, sorted(p.witness.A)) for p in b]


def test_translation_invariance_of_ratio():
    rng = random.Random(7)
    window = sorted(ball(Z2, 3).elements)
    for _ in range(10):
        A = frozenset(rng.sample(window, 5))
        r = boundary(Z2, A).ratio
        for t in [(2, -1), (-3, 3)]:
            B = frozenset(Z2.multiply(t, a) for a in A)
            assert boundary(Z2, B).ratio == r


def test_lift_examples():
    sh = make_halo("shuffler", None, Z)
    f = FiniteFunction({(0,): Fraction(1)}, 1)
    g = almost_invariant_lift(sh, f)
    assert len(g.entries) == 6
    assert gradient_ratio(sh, g) == gradient_ratio(Z, f) == 4

    wr = make_halo("wreath", CyclicGroup(2), Z)
    f01 = FiniteFunction({(0,): Fraction(1), (1,): Fraction(1)}, 1)
    g01 = almost_invariant_lift(wr, f01)
    assert len(g01.entries) == 32
    assert gradient_ratio(wr, g01) == gradient_ratio(Z, f01)


def test_lift_constant_on_finite_base():
    C4 = CyclicGroup(4)
    wr = make_halo("wreath", CyclicGroup(2), C4)
    f = FiniteFunction({g: Fraction(1) for g in C4.elements()}, 1)
    g = almost_invariant_lift(wr, f)
    assert gradient_ratio(wr, g) == gradient_ratio(C4, f) == 0


def test_spectral_refine_interval():
    pt = spectral_refine(Z, [(i,) for i in range(4)])
    assert pt.method == "spectral"
    # optimal l^2 value on a fixed support beats the flat indicator
    flat = FiniteFunction({(i,): 1.0 for i in range(4)}, 2)
    assert float(pt.value) >= 1.0 / gradient_ratio(Z, flat) - 1e-9


def test_power_transform_examples():
    with pytest.raises(ContractViolation):
        power_transform(FiniteFunction({(0,): 1.0}, 2), 2, 2)
    lhs, rhs = power_transform_bound(Z, FiniteFunction({(0,): 1.0}, 2), 2, 1)
    assert abs(lhs - 4.0) < 1e-9
    assert abs(rhs - 2 * math.sqrt(2) * 2 * 2) < 1e-9
    assert lhs <= rhs


def test_product_boundary_examples():
    w = product_boundary(Z, Z, [(0,)], [(0,)])
    assert len(w.boundary) == 4
    A = [(i,) for i in range(3)]
    B = [(i,) for i in range(5)]
    w = product_boundary(Z, Z, A, B)
    assert len(w.boundary) == 2 * 5 + 3 * 2
    C3 = CyclicGroup(3)
    w = product_boundary(C3, Z, C3.elements(), [(0,)])
    assert len(w.boundary) == 3 * 2  # whole C3 x boundary of {0}
