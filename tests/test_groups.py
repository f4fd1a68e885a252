import operator
import tracemalloc

import pytest

from halolab.errors import BudgetError, ContractViolation
from halolab.groups import (Ball, CyclicGroup, HeisenbergGroup, ProductGroup,
                            SymmetricGroup, ZdGroup, ball, make_group,
                            word_length)


def test_z_ball_counts():
    Z = ZdGroup(1, False)
    for r in range(6):
        assert len(ball(Z, r)) == 2 * r + 1


def test_z2_ball_counts():
    Z2 = ZdGroup(2, False)
    for r in range(5):
        assert len(ball(Z2, r)) == 2 * r * r + 2 * r + 1


def test_cyclic_ball_saturates():
    C7 = CyclicGroup(7)
    b = ball(C7, 10)
    assert len(b) == 7
    assert set(b.elements) == set(C7.elements())


def test_heisenberg_ball_against_matrix_oracle():
    """Independent oracle: BFS over explicit 3x3 unitriangular integer
    matrices with the same generating set."""
    H = HeisenbergGroup()

    def mat_mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3))
                           for j in range(3)) for i in range(3))

    I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def gen(x, y):
        return ((1, x, 0), (0, 1, y), (0, 0, 1))

    gens = [gen(1, 0), gen(-1, 0), gen(0, 1), gen(0, -1)]
    for radius in range(5):
        seen = {I3}
        frontier = [I3]
        for _ in range(radius):
            nxt = []
            for m in frontier:
                for g in gens:
                    p = mat_mul(m, g)
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
            frontier = nxt
        assert len(ball(H, radius)) == len(seen)


def test_heisenberg_group_laws():
    H = HeisenbergGroup()
    elems = sorted(ball(H, 3).elements)
    for a in elems[:10]:
        assert H.multiply(a, H.invert(a)) == H.identity()
        for b in elems[:10]:
            for c in elems[:5]:
                assert H.multiply(H.multiply(a, b), c) == \
                    H.multiply(a, H.multiply(b, c))


def test_product_group_ball():
    g = ProductGroup(ZdGroup(1, False), CyclicGroup(3))
    b = ball(g, 2)
    # ball of radius 2 in Z x C3: all (i, j) with |i| + d_C3(j) <= 2
    assert len(b) == 11


def test_ball_words_are_geodesic():
    g = ZdGroup(2, False)
    b = ball(g, 4)
    gens = g.generators()
    for elem in sorted(b.elements):
        word = b.word_to(elem)
        cur = g.identity()
        for i, sign in word:
            assert sign == 1
            cur = g.multiply(cur, gens[i])
        assert cur == elem
        assert len(word) == b.lengths[elem]


def test_ball_memory_budget():
    with pytest.raises(BudgetError):
        ball(ZdGroup(2, False), 30, memory_budget=1000)


def test_ball_memory_estimate_is_at_least_half_the_traced_size():
    """Each sphere is priced by its own elements, which grow with their
    length; priced like the identity, this ball read 0.37 of its size."""
    halo = make_group("juggler(2, Z)")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        b = ball(halo, 5)
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(b) == 9368
    with pytest.raises(BudgetError):
        ball(halo, 5, memory_budget=traced // 2)


def test_word_length():
    Z2 = ZdGroup(2, False)
    assert word_length(Z2, (3, -2)) == 5


@pytest.mark.parametrize("spec", ["Z^2", "H3", "Z x C3", "C5", "wreath(C2, Z)"])
def test_word_length_equals_the_ball_lengths(spec):
    g = make_group(spec)
    b = ball(g, 4)
    for x in b.elements:
        assert word_length(g, x) == b.lengths[x], x


def test_word_length_raises_past_max_radius():
    Z2 = ZdGroup(2, False)
    assert word_length(Z2, (3, -2), max_radius=5) == 5
    with pytest.raises(ContractViolation, match=r"element \(3, -2\) not within radius 4"):
        word_length(Z2, (3, -2), max_radius=4)


def test_word_length_stops_once_a_finite_ball_stops_growing(monkeypatch):
    grown = []
    grow = Ball.grow

    def counting_grow(self, radius, *args):
        grown.append(radius)
        return grow(self, radius, *args)

    monkeypatch.setattr(Ball, "grow", counting_grow)
    C5 = CyclicGroup(5)
    assert not Ball(C5).reach(7, 64)  # residues are 0..4
    # spheres {1, 4}, {2, 3}, then the empty one: no growth up to radius 64
    assert grown == [1, 2, 3]
    # word_length refuses 7 before its ball grows
    with pytest.raises(ContractViolation, match="7 is not an element of C5"):
        word_length(C5, 7)
    assert grown == [1, 2, 3] and C5.cayley_ball.radius == 0


def test_lex_order_on_zd():
    g = ZdGroup(2, True)
    # tuple < is lex with or without :lex, which only names it in the spec
    assert g.has_total_order and ZdGroup(2).has_total_order
    assert g.spec == "Z^2:lex" and ZdGroup(2).spec == "Z^2"
    assert (0, 1) < (1, -5) and (2, -3) < (2, -1)
    assert not (1, 0) < (1, 0)


def test_lex_order_translation_invariant():
    """has_total_order means that < is translation-invariant."""
    g = ZdGroup(2, True)
    pts = [(0, 0), (1, -2), (-1, 3), (2, 2), (0, -1)]
    for a in pts:
        for b in pts:
            for t in pts:
                assert (a < b) == (g.multiply(t, a) < g.multiply(t, b))


def test_symmetric_group():
    S3 = SymmetricGroup(3)
    assert len(S3.elements()) == 6
    for a in S3.elements():
        assert S3.multiply(a, S3.invert(a)) == S3.identity()


def test_triangle_inequality_on_sampled_elements():
    g = ZdGroup(2, False)
    b = ball(g, 3)
    elems = sorted(b.elements)[:12]
    for a in elems:
        for c in elems:
            prod = g.multiply(a, c)
            if prod in b:
                assert b.lengths[prod] <= b.lengths[a] + b.lengths[c]


def test_make_group_delegates_to_descriptor():
    g = make_group("Z^2:lex")
    assert isinstance(g, ZdGroup) and g.d == 2 and g.lex
    with pytest.raises(Exception):
        make_group("nonsense(")


def test_step_is_right_multiplication_by_a_generator():
    groups = [make_group(spec) for spec in ("Z", "Z^3", "Z^2:lex", "C5", "H3", "Z x C3")]
    for g in groups + [SymmetricGroup(4)]:
        spec = g.spec
        gens = g.generators()
        for a in ball(g, 2).elements:
            for i, s in enumerate(gens):
                assert g.step(a, i) == g.multiply(a, s), (spec, a, i)


def test_default_step_fetches_the_generators_once():
    class Counting(CyclicGroup):
        calls = 0

        def generators(self):
            Counting.calls += 1
            return super().generators()

    c = Counting(5)
    for a in range(5):
        assert [c.step(a, i) for i in range(2)] == [(a + 1) % 5, (a - 1) % 5]
    assert Counting.calls == 1


class _SkewedZd(ZdGroup):
    """Z^d with its own generator list, not +-e_i: step must add these."""

    def __init__(self, d, lex):
        super().__init__(d, lex)
        self._gens = [tuple(range(1, d + 1)), tuple(range(-1, -d - 1, -1)),
                      (2,) * d, self._gens[0]]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("lex", [False, True])
def test_zd_arithmetic_against_a_coordinatewise_oracle(d, lex):
    """multiply, step and invert against tuple(map(...)) on every pair of
    Ball(3) (Ball(2) for d = 4), for Z^d and for a subclass whose
    generators are not +-e_i."""
    e = (0,) * d
    elems = ball(ZdGroup(d), 3 if d < 4 else 2).elements
    for Z in (ZdGroup(d, lex), _SkewedZd(d, lex)):
        assert Z.identity() == e
        for a in elems:
            inv = Z.invert(a)
            assert type(inv) is tuple and inv == tuple(map(operator.neg, a))
            assert Z.multiply(a, inv) == e
            for i, s in enumerate(Z.generators()):
                assert Z.step(a, i) == Z.multiply(a, s) == tuple(map(operator.add, a, s)), (Z, a, i)
            for b in elems:
                ab = Z.multiply(a, b)
                assert type(ab) is tuple and ab == tuple(map(operator.add, a, b)), (Z, a, b)
                assert all(type(x) is int for x in ab)


def test_default_step_keeps_the_generators_in_a_plain_attribute():
    """A group without its own step fetches its generator list on the
    first step and keeps it as an ordinary instance attribute (no
    functools.cached_property, whose direct __dict__ write slows later
    attribute reads); every step still equals multiply."""
    for group in (CyclicGroup(5), CyclicGroup(2), SymmetricGroup(3),
                  ProductGroup(ZdGroup(1, False), CyclicGroup(3))):
        assert "_step_generators" not in vars(group)
        assert not hasattr(type(group), "_step_generators")
        gens = group.generators()
        elements = list(ball(group, 2).elements)
        assert [group.step(a, i) for a in elements for i in range(len(gens))] == \
            [group.multiply(a, s) for a in elements for s in gens]
        assert vars(group)["_step_generators"] == gens
