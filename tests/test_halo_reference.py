"""Halo arithmetic against a keyed reference.

The reference below is the lamp arithmetic as it stood before payloads
were sorted by the points' own order: every payload helper sorts with an
explicit site key (_site_key below, written out structurally; (key(x),
i) for juggler points), permutations compose through two dicts over the
union of the supports, and a product always translates and then
composes.  halo.py must agree with it payload for payload.
"""
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from operator import neg

import pytest

from conftest import assert_ball_is_fresh, is_payload_code, search_payloads
from halolab.decompose import evaluate_word
from halolab.gf import GF
from halolab.errors import ContractViolation
from halolab.groups import (Ball, CyclicGroup, HeisenbergGroup, ProductGroup,
                            SymmetricGroup, ZdGroup, ball, make_group)
from halolab import halo as halo_module
from halolab.halo import HaloGroup, enumerate_block, make_halo
from halolab.isoperimetry import FiniteFunction, almost_invariant_lift, gradient_ratio

# ---------------------------------------------------------------------------
# the keyed reference helpers


def _site_key(base):
    """The key the reference sorts base points by: a product's elements
    componentwise, a halo's as (lamp, key of the cursor), every other
    group's as the element itself."""
    if isinstance(base, ProductGroup):
        left, right = _site_key(base.left), _site_key(base.right)
        return lambda a: (left(a[0]), right(a[1]))
    if isinstance(base, HaloGroup):
        cursor = _site_key(base.base)
        return lambda a: (a[0], cursor(a[1]))
    return lambda a: a


def _perm_apply(p, x):
    return p.get(x, x)


def _perm_canonical(mapping, key):
    items = [(x, y) for x, y in mapping.items() if x != y]
    items.sort(key=lambda xy: key(xy[0]))
    return tuple(items)


def _perm_compose(a, b, key):
    da, db = dict(a), dict(b)
    out = {}
    for x in set(da) | set(db):
        out[x] = _perm_apply(da, _perm_apply(db, x))
    return _perm_canonical(out, key)


def _perm_invert(a, key):
    return _perm_canonical({y: x for x, y in a}, key)


def _perm_translate(move, h, a, key):
    return _perm_canonical({move(h, x): move(h, y) for x, y in a}, key)


def _map_canonical(mapping, fiber, key):
    e = fiber.identity()
    items = [(x, v) for x, v in mapping.items() if v != e]
    items.sort(key=lambda xv: key(xv[0]))
    return tuple(items)


def _map_compose(da, db, fiber, key):
    e = fiber.identity()
    out = {x: fiber.multiply(da.get(x, e), db.get(x, e)) for x in set(da) | set(db)}
    return _map_canonical(out, fiber, key)


def _map_translate(base, h, a, fiber, key):
    return _map_canonical({base.multiply(h, x): v for x, v in a}, fiber, key)


def _mat_canonical(entries, key):
    items = [((p, q), v) for (p, q), v in entries.items() if v != (1 if p == q else 0)]
    items.sort(key=lambda e: (key(e[0][0]), key(e[0][1])))
    return tuple(items)


def _mat_sites(a):
    return frozenset(x for (p, q), _ in a for x in (p, q))


def _mat_compose(a, b, gf, key):
    sites = _mat_sites(a) | _mat_sites(b)
    da, db = dict(a), dict(b)

    def entry(d, p, q):
        return d.get((p, q), 1 if p == q else 0)

    out = {}
    for p in sites:
        for q in sites:
            acc = 0
            for x in sites:
                acc = gf.add(acc, gf.mul(entry(da, p, x), entry(db, x, q)))
            out[(p, q)] = acc
    return _mat_canonical(out, key)


def _mat_from_rows(rows, sites, key):
    return _mat_canonical({(p, q): rows[i][j] for i, p in enumerate(sites)
                           for j, q in enumerate(sites)}, key)


def _mat_invert(a, gf, key):
    sites = sorted(_mat_sites(a), key=key)
    n = len(sites)
    d = dict(a)
    aug = [[d.get((p, q), 1 if p == q else 0) for q in sites] +
           [1 if j == i else 0 for j in range(n)] for i, p in enumerate(sites)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = gf.inv(aug[col][col])
        aug[col] = [gf.mul(inv, v) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [gf.sub(v, gf.mul(factor, w)) for v, w in zip(aug[r], aug[col])]
    return _mat_from_rows([row[n:] for row in aug], sites, key)


class Reference:
    """The lamp and element arithmetic of one halo, by the keyed helpers."""

    def __init__(self, halo):
        self.halo = halo
        self.base = base = halo.base
        self.family = halo.family
        self.site_key = site_key = _site_key(base)
        if self.family == "juggler":
            self.key = lambda point: (site_key(point[0]), point[1])
        else:
            self.key = site_key

    def _move(self, h, x):
        if self.family == "juggler":
            return (self.base.multiply(h, x[0]), x[1])
        return self.base.multiply(h, x)

    def compose(self, a, b):
        fam, key = self.family, self.key
        if fam in ("shuffler", "juggler"):
            return _perm_compose(a, b, key)
        if fam == "wreath":
            return _map_compose(dict(a), dict(b), self.halo.fiber, key)
        if fam == "designer":
            (fa, pa), (fb, pb) = a, b
            dpa = dict(pa)
            shifted = {_perm_apply(dpa, x): v for x, v in fb}
            return (_map_compose(dict(fa), shifted, self.halo.fiber, key),
                    _perm_compose(pa, pb, key))
        return _mat_compose(a, b, self.halo.gf, key)

    def invert_lamp(self, a):
        fam, key = self.family, self.key
        if fam in ("shuffler", "juggler"):
            return _perm_invert(a, key)
        if fam == "wreath":
            fiber = self.halo.fiber
            return _map_canonical({x: fiber.invert(v) for x, v in a}, fiber, key)
        if fam == "designer":
            fa, pa = a
            pinv = _perm_invert(pa, key)
            dpinv = dict(pinv)
            fiber = self.halo.fiber
            out = {_perm_apply(dpinv, x): fiber.invert(v) for x, v in fa}
            return (_map_canonical(out, fiber, key), pinv)
        return _mat_invert(a, self.halo.gf, key)

    def act(self, h, a):
        fam, key, base = self.family, self.key, self.base
        if fam in ("shuffler", "juggler"):
            return _perm_translate(self._move, h, a, key)
        if fam == "wreath":
            return _map_translate(base, h, a, self.halo.fiber, key)
        if fam == "designer":
            fa, pa = a
            return (_map_translate(base, h, fa, self.halo.fiber, key),
                    _perm_translate(base.multiply, h, pa, key))
        return _mat_canonical({(base.multiply(h, p), base.multiply(h, q)): v
                               for (p, q), v in a}, key)

    def multiply(self, x, y):
        (sa, ha), (sb, hb) = x, y
        return (self.compose(sa, self.act(ha, sb)), self.base.multiply(ha, hb))

    def invert(self, x):
        sa, ha = x
        hinv = self.base.invert(ha)
        return (self.invert_lamp(self.act(hinv, sa)), hinv)

    def block(self, sites):
        fam, key, halo = self.family, self.key, self.halo
        sites = sorted(sites, key=self.site_key)
        if fam == "wreath":
            return [_map_canonical(dict(zip(sites, values)), halo.fiber, key)
                    for values in itertools.product(halo.fiber.elements(),
                                                    repeat=len(sites))]
        if fam in ("shuffler", "juggler"):
            points = sites if fam == "shuffler" else \
                [(x, i) for x in sites for i in range(halo.tracks)]
            return [_perm_canonical(dict(zip(points, images)), key)
                    for images in itertools.permutations(points)]
        if fam == "designer":
            perms = [_perm_canonical(dict(zip(sites, images)), key)
                     for images in itertools.permutations(sites)]
            return [(_map_canonical(dict(zip(sites, values)), halo.fiber, key), p)
                    for values in itertools.product(halo.fiber.elements(),
                                                    repeat=len(sites))
                    for p in perms]
        gf = halo.gf
        if fam == "upcloner":
            ordered = sorted(sites)
            pairs = list(itertools.combinations(ordered, 2))
            return [_mat_canonical(dict(zip(pairs, values)), key)
                    for values in itertools.product(gf.elements, repeat=len(pairs))]
        # cloner: the rows of every invertible matrix, in the order of halo.py
        n = len(sites)
        out = []

        def extend(rows, span):
            if len(rows) == n:
                out.append(_mat_from_rows(rows, sites, key))
                return
            for v in itertools.product(range(gf.q), repeat=n):
                if v not in span:
                    extend(rows + [list(v)],
                           {tuple(gf.add(a, gf.mul(c, b)) for a, b in zip(w, v))
                            for w in span for c in range(gf.q)})

        extend([], {(0,) * n})
        return out


# ---------------------------------------------------------------------------

Z, Z2, ZLEX, Z2LEX = ZdGroup(1), ZdGroup(2), ZdGroup(1, True), ZdGroup(2, True)
H3 = HeisenbergGroup()
ZxC3 = ProductGroup(Z, CyclicGroup(3))
C2, C3, S3 = CyclicGroup(2), CyclicGroup(3), SymmetricGroup(3)

HALOS = [
    ("wreath", C2, Z), ("wreath", C3, Z2), ("wreath", S3, H3), ("wreath", C2, ZxC3),
    ("shuffler", None, Z), ("shuffler", None, Z2), ("shuffler", None, H3),
    ("shuffler", None, ZxC3),
    ("juggler", 1, Z), ("juggler", 2, Z), ("juggler", 2, Z2), ("juggler", 3, ZxC3),
    ("designer", C2, Z), ("designer", C3, Z2), ("designer", S3, Z), ("designer", C2, H3),
    ("cloner", GF(2), Z), ("cloner", GF(3), Z2), ("cloner", GF(2), H3),
    ("cloner", GF(3), ZxC3),
    ("upcloner", GF(2), ZLEX), ("upcloner", GF(3), ZLEX), ("upcloner", GF(2), Z2LEX),
]
IDS = [f"{fam}-{getattr(p, 'spec', p)}-{base.spec}" for fam, p, base in HALOS]


def _reference_elements(halo, ref, rng):
    """The identity and 40 random words, built by the reference alone so
    no shortcut of halo.multiply or halo.step feeds them."""
    gens = halo.generators()
    elems = [halo.identity()]
    for _ in range(40):
        x = halo.identity()
        for _ in range(rng.randint(1, 10)):
            x = ref.multiply(x, rng.choice(gens))
        elems.append(x)
    assert len(set(elems)) > 20, "the random words should reach distinct elements"
    return elems


@pytest.mark.parametrize("family, params, base", HALOS, ids=IDS)
def test_halo_arithmetic_matches_keyed_reference(family, params, base):
    halo = make_halo(family, params, base)
    ref = Reference(halo)
    rng = random.Random(halo.spec)
    gens = halo.generators()
    elems = _reference_elements(halo, ref, rng)
    for x in elems:
        assert halo.invert(x) == ref.invert(x)
        for s in gens:
            assert halo.multiply(x, s) == ref.multiply(x, s)
    for _ in range(150):
        x, y = rng.choice(elems), rng.choice(elems)
        assert halo.multiply(x, y) == ref.multiply(x, y)
        assert halo.lamp_compose(x[0], y[0]) == ref.compose(x[0], y[0])
        h = rng.choice(elems)[1]
        assert halo.lamp_act(h, x[0]) == ref.act(h, x[0])


@pytest.mark.parametrize("family, params, base", HALOS, ids=IDS)
def test_enumerate_block_matches_keyed_reference(family, params, base):
    halo = make_halo(family, params, base)
    ref = Reference(halo)
    rng = random.Random(halo.spec)
    window = sorted(ball(base, 2).elements)
    for k in (1, 2, 3):
        if halo.growth(k) > 1500:
            continue
        for _ in range(3):
            sites = rng.sample(window, k)
            rng.shuffle(sites)
            assert enumerate_block(halo, sites) == ref.block(sites), sites


# halos over halos: a base-generator step is the inner halo's own step
NESTED = [("shuffler", None, make_halo("wreath", C2, Z)),
          ("wreath", C2, make_halo("shuffler", None, Z))]


@pytest.mark.parametrize("family, params, base", HALOS + NESTED,
                         ids=IDS + ["shuffler-wreath(C2, Z)", "wreath-C2-shuffler(Z)"])
def test_step_matches_keyed_reference(family, params, base):
    halo = make_halo(family, params, base)
    ref = Reference(halo)
    gens = halo.generators()
    for x in _reference_elements(halo, ref, random.Random(halo.spec)):
        for i, s in enumerate(gens):
            assert halo.step(x, i) == ref.multiply(x, s), (x, i)


def test_step_cursor_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(halo_module, "_STEP_CACHE_CURSORS", 2)
    halo = make_halo("juggler", 2, Z2)
    ref = Reference(halo)
    gens = halo.generators()
    for x in _reference_elements(halo, ref, random.Random(7)):
        for i, s in enumerate(gens):
            assert halo.step(x, i) == ref.multiply(x, s), (x, i)
            assert len(halo._translated) <= 2


# the blocks L(V) the lift enumerates, V = U union U.S_H with |U| = 2 or 3;
# the list order is part of the contract
LIFT_BLOCKS = [("juggler", 2, [(1,), (-1,), (2,), (0,)], 40320),
               ("designer", C2, [(2,), (0,), (-2,), (1,), (-1,)], 3840),
               ("wreath", C2, [(2,), (0,), (-2,), (1,), (-1,)], 32),
               ("shuffler", None, [(2,), (0,), (-2,), (1,), (-1,)], 120),
               ("upcloner", GF(2), [(2,), (0,), (-2,), (1,), (-1,)], 1024),
               ("cloner", GF(2), [(1,), (-1,), (2,), (0,)], 20160),
               ("cloner", GF(3), [(0,), (1,), (-1,)], 11232)]


@pytest.mark.parametrize("family, params, sites, size", LIFT_BLOCKS,
                         ids=[f"{fam}-{getattr(p, 'spec', p)}-{len(sites)}"
                              for fam, p, sites, _ in LIFT_BLOCKS])
def test_blocks_of_the_lift_match_keyed_reference(family, params, sites, size):
    halo = make_halo(family, params, Z)
    block = enumerate_block(halo, sites)
    assert len(block) == halo.growth(len(sites)) == size
    assert block == Reference(halo).block(sites)


PARSED_SPECS = ["Z", "Z^2", "Z^3", "Z:lex", "Z^2:lex", "C2", "C5", "H3", "Z x C3",
                "Z^2 x H3", "C2 x Z x Z:lex", "wreath(C2, Z)", "shuffler(Z)",
                "juggler(2, Z)", "designer(C2, Z)", "cloner(GF2, Z)",
                "upcloner(GF2, Z:lex)", "shuffler(Z x C2)"]


def test_ball_sorted_natively_is_strictly_increasing_on_every_parsed_group():
    """The GroupHandle contract: distinct elements are strictly ordered by
    <, which every tie-break and payload sort relies on."""
    for g in [make_group(spec) for spec in PARSED_SPECS] + \
            [make_halo(*h) for h in NESTED]:
        xs = list(ball(g, 2).elements)
        random.Random(g.spec).shuffle(xs)
        xs.sort()
        assert all(a < b for a, b in zip(xs, xs[1:])), g.spec


ORDERED_SPECS = {"Z", "Z^2", "Z^3", "Z:lex", "Z^2:lex", "H3", "Z^2 x H3"}


def _left_invariance_violation(g):
    """A (t, a, b) in Ball(3) x Ball(2) x Ball(2) with a < b but not
    t*a < t*b, or None.  Ball(2) sorted is a strictly increasing chain, so
    t preserves < on it iff the translated chain still increases."""
    chain = sorted(ball(g, 2).elements)
    for t in sorted(ball(g, 3).elements):
        images = [g.multiply(t, x) for x in chain]
        for i in range(len(chain) - 1):
            if not images[i] < images[i + 1]:
                return t, chain[i], chain[i + 1]
    return None


@pytest.mark.parametrize("spec", PARSED_SPECS)
def test_has_total_order_holds_exactly_when_the_order_is_left_invariant(spec):
    """The flag is True on the torsion-free groups, where < is
    left-invariant on small balls, and False on every group with torsion,
    where a translation that breaks < is found in the same balls."""
    g = make_group(spec)
    assert g.has_total_order == (spec in ORDERED_SPECS)
    violation = _left_invariance_violation(g)
    assert (violation is None) == g.has_total_order, violation


def test_has_total_order_is_false_on_every_group_with_torsion():
    groups = [CyclicGroup(m) for m in (2, 3, 7)] + [SymmetricGroup(m) for m in (1, 3, 4)]
    groups += [make_halo(*h) for h in HALOS + NESTED]
    for g in groups:
        assert not g.has_total_order, g.spec


def test_is_element_accepts_ball_elements_and_rejects_malformed_values():
    groups = [make_group(spec) for spec in PARSED_SPECS] + [S3, SymmetricGroup(4)]
    groups += [make_halo(*h) for h in HALOS + NESTED]
    for g in groups:
        xs = list(ball(g, 2).elements)
        assert all(g.is_element(x) for x in xs), g.spec
        for x in xs[:8]:
            assert not g.is_element((x,)) and not g.is_element([x]), (g.spec, x)
    bad = {"Z": [(0, 0), (True,), (0.0,), 0], "Z^2": [(0,), (0, "1")],
           "C5": [5, -1, (0,), True], "H3": [(0, 0), (0, 0, 0.5)],
           "Z x C3": [((0,), 3), ((0,),)],
           "wreath(C2, Z)": [((((0,), 2),), (0,)), ((((0, 0), 1),), (0,)), ((), 0)],
           "shuffler(Z)": [((((0,), (1,)),), (0,)), ((((0,), (0,)),), (0,))],
           "cloner(GF2, Z)": [(((((0,), (0,)), 0),), (0,)), (((((0,), (1,)), 5),), (0,))],
           "upcloner(GF2, Z:lex)": [(((((1,), (0,)), 1),), (0,)),
                                    (((((0,), (1,)), 2),), (0,))],
           "designer(C2, Z)": [(((), (((0,), (1,)),)), (0,))]}
    for spec, values in bad.items():
        g = make_group(spec)
        for x in values:
            assert not g.is_element(x), (spec, x)
    assert not SymmetricGroup(3).is_element((0, 0, 1))


def test_upcloner_over_h3_builds_and_multiplies_associatively():
    """H3 is ordered, so the upcloner takes it as a base (the descriptor
    grammar still asks for a :lex atom)."""
    up = make_halo("upcloner", GF(2), H3)
    assert len(up.lamp_generators()) == 2  # one per generator above the identity
    xs = sorted(ball(up, 1).elements)
    assert len(xs) == 7
    for a, b, c in itertools.product(xs, repeat=3):
        assert up.multiply(up.multiply(a, b), c) == up.multiply(a, up.multiply(b, c))


def test_generator_lists_are_duplicate_free_and_closed_under_inversion():
    """evaluate_word steps a -1 letter by the index of the generator's
    inverse, so every list must hold each inverse, once."""
    groups = [make_group(spec) for spec in PARSED_SPECS]
    groups += [make_halo(*h) for h in HALOS + NESTED]
    for g in groups:
        gens = g.generators()
        assert len(set(gens)) == len(gens), g.spec
        assert g.identity() not in gens, g.spec
        assert {g.invert(s) for s in gens} <= set(gens), g.spec


def test_inverse_index_is_built_once_per_halo():
    """generator_index maps each generator to its index, inverse_index[i]
    is the index of generator i's inverse, and evaluate_word reads it
    without inverting a generator."""
    for g in [make_group(spec) for spec in PARSED_SPECS]:
        if not isinstance(g, HaloGroup):
            continue
        gens = g.generators()
        index = {s: i for i, s in enumerate(gens)}
        assert g.generator_index == index, g.spec
        assert list(g.inverse_index) == [index[g.invert(s)] for s in gens], g.spec
        calls = []
        invert = g.invert
        g.invert = lambda a: calls.append(a) or invert(a)
        word = [(i, exp) for i in range(len(gens)) for exp in (1, -1)]
        assert evaluate_word(g, word) == g.identity(), g.spec
        assert calls == [], g.spec


# Ball(9) of these two would hold millions of elements
GROWN_STOPS = {"juggler(2, Z)": (1, 3, 5), "shuffler(Z x C2)": (1, 3, 5)}


@pytest.mark.parametrize("spec", PARSED_SPECS)
def test_ball_grown_in_steps_equals_a_fresh_ball(spec):
    g = make_group(spec)
    grown = Ball(g)
    for r in GROWN_STOPS.get(spec, (2, 5, 9)):
        grown.grow(r)
    fresh = ball(g, r)
    assert grown.radius == fresh.radius == r
    assert list(grown.lengths.items()) == list(fresh.lengths.items())
    assert grown.parents == fresh.parents
    assert set(grown.elements) == set(fresh.elements) == set(fresh.lengths)
    assert grown.sphere == [x for x, l in fresh.lengths.items() if l == r]


@pytest.mark.parametrize("family, params, base", [("shuffler", None, Z2), ("wreath", C2, H3),
                                                  ("juggler", 2, ZxC3)])
def test_base_word_after_growth_equals_a_fresh_balls_word(family, params, base):
    base = make_group(base.spec)  # a handle whose ball starts at radius 0
    halo = make_halo(family, params, base)
    fresh = ball(base, 4)
    off = halo.base_gen_offset
    xs = sorted(fresh.elements)
    random.Random(halo.spec).shuffle(xs)  # the base's one ball grows in uneven steps
    for x in xs:
        assert halo.base_word(x) == [(off + i, 1) for i, _ in fresh.word_to(x)], x
    far = max(xs)
    far = base.multiply(far, far)
    message = f"element {far!r} not within radius 1"
    with pytest.raises(ContractViolation, match=re.escape(message)):
        halo.base_word(far, max_radius=1)
    assert len(halo.base_word(far)) == ball(base, 8).lengths[far]
    assert_ball_is_fresh(base.cayley_ball)


@pytest.mark.parametrize("grown_first", [False, True], ids=["fresh", "grown"])
def test_base_word_with_a_max_radius_answers_from_its_arguments_alone(grown_first):
    """A 5-letter word past max_radius=1 is refused whether or not an
    earlier call has grown the ball past it."""
    halo = make_halo("wreath", C2, ZdGroup(1))
    if grown_first:
        assert len(halo.base_word((5,))) == 5
    with pytest.raises(ContractViolation, match=re.escape("element (5,) not within radius 1")):
        halo.base_word((5,), max_radius=1)
    assert halo.base.cayley_ball.radius == (5 if grown_first else 1)
    assert halo.base_word((5,), max_radius=5) == [(halo.base_gen_offset, 1)] * 5
    with pytest.raises(ContractViolation, match=re.escape("element (5,) not within radius 4")):
        halo.base_word((5,), max_radius=4)


@pytest.mark.parametrize("value", [(1, 2), 1, "x"], ids=["2-tuple", "int", "str"])
def test_base_word_rejects_a_value_that_is_no_base_element(value):
    """Such a value used to grow the base ball toward its memory budget
    (still running after 20 s for (1, 2) over Z); it is now refused before
    the ball takes a step."""
    halo = make_halo("wreath", C2, ZdGroup(1))
    with pytest.raises(ContractViolation, match="is not an element of Z"):
        halo.base_word(value)
    assert halo.base.cayley_ball.radius == 0


# ---------------------------------------------------------------------------
# ball and boundary take each a * s by step; these copies multiply instead


def _multiply_ball(group, radius):
    gens = group.generators()
    lengths, parents, frontier = {group.identity(): 0}, {}, [group.identity()]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for i, s in enumerate(gens):
                h = group.multiply(g, s)
                if h not in lengths:
                    lengths[h], parents[h] = r, (g, i)
                    nxt.append(h)
        frontier = nxt
    return lengths, parents


def _multiply_boundary(group, A):
    A = frozenset(A)
    return frozenset(b for a in A for s in group.generators()
                     for b in [group.multiply(a, s)] if b not in A)


@pytest.mark.parametrize("group", [make_group(spec) for spec in PARSED_SPECS]
                         + [make_halo(*h) for h in HALOS[2::4] + NESTED],
                         ids=lambda g: g.spec)
def test_ball_and_boundary_by_step_equal_their_multiply_copies(group):
    from halolab.isoperimetry import boundary

    b = ball(group, 2)
    assert (b.lengths, b.parents) == _multiply_ball(group, 2)
    rng = random.Random(group.spec)
    window = sorted(b.elements)
    for _ in range(10):
        A = rng.sample(window, rng.randint(1, min(12, len(window))))
        assert boundary(group, A).boundary == _multiply_boundary(group, A)


# ---------------------------------------------------------------------------
# gradient rows: step_rows against a multiply copy, coded rows against steps


def _multiply_row_pairs(group, values, outside=None):
    """Counter of (f(g), f(g s)) over g in the support and every generator
    s, each g s taken by multiply; 0 outside the support, or outside(f(g))
    when outside is given."""
    return Counter((v, values.get(group.multiply(g, s), 0 if outside is None else outside(v)))
                   for g, v in values.items() for s in group.generators())


def _row_pairs(rows):
    pairs = Counter()
    for vs, ws in rows:
        ws = list(ws)
        assert len(ws) == len(vs)
        pairs.update(zip(vs, ws))
    return pairs


def _random_values(rng, support):
    """Mixed-sign Fractions, nearly all distinct, so a pair (f(g), f(g s))
    names the edge it comes from."""
    return {g: Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 9))
            for g in support}


@pytest.mark.parametrize("group", [make_group(spec) for spec in PARSED_SPECS]
                         + [make_halo(*h) for h in NESTED], ids=lambda g: g.spec)
def test_step_rows_pair_each_element_with_its_multiply_neighbours(group):
    """Part of a ball of radius 3 as the support: on a halo its lamps sit at
    several cursors, and steps from the sphere and from the dropped
    elements leave the support.  step_rows reads the pairs from a one-shot
    generator, which both GroupHandle.step_rows and the halo override
    accept.  With outside=neg a neighbour outside the support reads
    -f(g), and one inside still reads its own value."""
    rng = random.Random(group.spec)
    window = sorted(ball(group, 3).elements)
    for _ in range(3):
        support = rng.sample(window, rng.randint(1, min(400, len(window))))
        values = _random_values(rng, support)
        pairs = (pair for pair in values.items())
        assert _row_pairs(group.step_rows(pairs)) == _multiply_row_pairs(group, values)
        assert next(pairs, None) is None  # read to the end
        assert (_row_pairs(group.step_rows(values.items(), neg))
                == _multiply_row_pairs(group, values, neg))


def _coded_and_stepped_rows(halo, values):
    """Whether the halo has a lamp code of its own, not the payload code,
    for the whole support (every cursor's translated generators as moves,
    the support's lamps), the rows of its step_rows call, and the rows of
    a copy of the halo given the payload code, which steps each payload by
    lamp_compose and looks it up; each row is read into a pair of lists."""
    stepped_halo = search_payloads(make_halo(halo.family, halo.params, halo.base))
    moves = [t for h in dict.fromkeys(h for _, h in values) for t in halo._translates(h)]
    coded = not is_payload_code(halo, halo._lamp_codes(moves, [lamp for lamp, _ in values]))

    def read(rows):
        return [(list(vs), list(ws)) for vs, ws in rows]

    return (coded, read(halo.step_rows(values.items())),
            read(stepped_halo.step_rows(values.items())))


def _hits(rows):
    """How many neighbours in the rows lie in the support."""
    return sum(w != 0 for _, ws in rows for w in ws)


PERMUTATION_HALOS = [("shuffler", None, Z), ("juggler", 2, Z), ("juggler", 3, Z),
                     ("shuffler", None, ProductGroup(Z, C2)),
                     ("shuffler", None, make_halo("wreath", C2, Z))]
# wreath and designer lamps code as permutations of the points site x fiber;
# Sym(3) is a non-abelian fiber
FIBER_HALOS = [(family, fiber, Z) for family in ("wreath", "designer")
               for fiber in (C2, C3, S3)]
FIBER_IDS = [f"{family}-{fiber.spec}-Z" for family, fiber, _ in FIBER_HALOS]
# over GF(2) the matrix rows come from codes, over GF(3), GF(4) (which adds
# by XOR) and GF(5) from the payload code, which steps each lamp
MATRIX_HALOS = ([("cloner", GF(q), base) for q in (2, 3, 4) for base in (Z, Z2, H3)]
                + [("upcloner", GF(q), base) for q in (2, 3, 5) for base in (ZLEX, Z2LEX)])


@pytest.mark.parametrize("family, params, base",
                         PERMUTATION_HALOS + MATRIX_HALOS + FIBER_HALOS,
                         ids=["shuffler-Z", "juggler-2-Z", "juggler-3-Z",
                              "shuffler-Z x C2", "shuffler-wreath(C2, Z)"]
                         + [f"{fam}-GF{gf.q}-{base.spec}" for fam, gf, base in MATRIX_HALOS]
                         + FIBER_IDS)
def test_coded_lamp_rows_equal_the_stepped_rows(family, params, base):
    """Random lamps at a few cursors, each with some of its lamp-generator
    neighbours, so lookups both hit and miss."""
    halo = make_halo(family, params, base)
    rng = random.Random(halo.spec)
    gens = halo.generators()
    cursors = [x[1] for x in _reference_elements(halo, Reference(halo), rng)[:4]]
    support = set()
    for h in cursors:
        for _ in range(30):
            x = (halo.identity()[0], h)
            for _ in range(rng.randint(0, 8)):
                x = halo.multiply(x, rng.choice(gens[:halo.base_gen_offset]))
            support.add(x)
    values = _random_values(rng, support)
    coded, rows, stepped = _coded_and_stepped_rows(halo, values)
    assert coded == (family in ("shuffler", "juggler", "wreath", "designer")
                     or params == GF(2))
    assert rows == stepped
    assert _hits(rows) > 0, "some lamp-generator neighbours should lie in the support"


def _base_rows(halo, rows):
    """The base generators' rows: step_rows gives each cursor the rows of
    its lamp generators and then those of its base generators."""
    per = len(halo.generators())
    return [row for i, row in enumerate(rows) if i % per >= halo.base_gen_offset]


# every lift of 1_U, U = {0, .., size - 1}, whose block L(V) fits the budget
LIFTS = ([("shuffler", None, Z, size) for size in (1, 2, 3)]
         + [("juggler", 2, Z, size) for size in (1, 2)]
         + [("cloner", GF(2), Z, size) for size in (1, 2)]
         + [("upcloner", GF(2), ZLEX, size) for size in (1, 2, 3)]
         + [("wreath", fiber, Z, size) for fiber in (C2, C3, S3) for size in (1, 2, 3)]
         + [("designer", C2, Z, size) for size in (1, 2, 3)]
         + [("designer", fiber, Z, size) for fiber in (C3, S3) for size in (1, 2)])


@pytest.mark.parametrize("family, params, base, size", LIFTS,
                         ids=[f"{fam}-{size}" if params is None or isinstance(params, (int, GF))
                              else f"{fam}-{params.spec}-{size}"
                              for fam, params, _, size in LIFTS])
def test_coded_rows_of_a_lift_equal_the_stepped_rows(family, params, base, size):
    """The almost-invariant lift puts one block's payload objects at every
    cursor of U: a base row from a cursor of U lands on the coded table of
    its neighbour in U, whose lamps are all there (so the base rows hit
    exactly 2 (|U| - 1) |L(V)| times), and at the ends of U on a cursor
    outside the support."""
    halo = make_halo(family, params, base)
    lift = almost_invariant_lift(halo, FiniteFunction({(i,): 1 for i in range(size)}, 1))
    values = _random_values(random.Random(f"{halo.spec} {size}"), lift.entries)
    coded, rows, stepped = _coded_and_stepped_rows(halo, values)
    assert coded and rows == stepped
    assert _hits(_base_rows(halo, rows)) == 2 * (size - 1) * len(values) // size
    assert _hits(rows) > _hits(_base_rows(halo, rows))


CODED_HALOS = [("shuffler", None, Z), ("juggler", 2, Z), ("cloner", GF(2), Z),
               ("upcloner", GF(2), ZLEX)] + FIBER_HALOS
CODED_IDS = [fam for fam, _, _ in CODED_HALOS[:4]] + FIBER_IDS


@pytest.mark.parametrize("family, params, base", CODED_HALOS, ids=CODED_IDS)
def test_coded_rows_of_equal_lamps_as_distinct_objects(family, params, base):
    """The block L({0, 1, 2}) at cursor 0, and at cursor 1 a shuffled copy
    of it rebuilt by make_lamp: equal lamps, but distinct objects with
    distinct entries (bar the empty identity payload).  Equal lamps code
    alike whatever object they come as, so every base row between the two
    cursors hits."""
    halo = make_halo(family, params, base)
    block = enumerate_block(halo, [(0,), (1,), (2,)])
    rng = random.Random(halo.spec)
    copies = [halo.make_lamp(halo._lamp_entries(lamp)) for lamp in block]
    assert copies == block
    assert all(copy is not lamp for copy, lamp in zip(copies, block) if lamp)  # () is one object
    rng.shuffle(copies)
    support = [(lamp, (0,)) for lamp in block] + [(lamp, (1,)) for lamp in copies]
    coded, rows, stepped = _coded_and_stepped_rows(halo, _random_values(rng, support))
    assert coded and rows == stepped
    assert _hits(_base_rows(halo, rows)) == 2 * len(block)


@pytest.mark.parametrize("family, params, base", CODED_HALOS, ids=CODED_IDS)
def test_coded_rows_whose_base_neighbours_leave_the_support(family, params, base):
    """The block L({0, 1, 2}) at the cursors 0 and 2: the cursors 1 and
    +-3 between and beside them carry no lamp, so every base row looks
    its codes up in an empty table and holds only 0, while lamp rows hit."""
    halo = make_halo(family, params, base)
    block = enumerate_block(halo, [(0,), (1,), (2,)])
    support = [(lamp, (h,)) for h in (0, 2) for lamp in block]
    values = _random_values(random.Random(halo.spec), support)
    coded, rows, stepped = _coded_and_stepped_rows(halo, values)
    assert coded and rows == stepped
    assert _hits(_base_rows(halo, rows)) == 0 < _hits(rows)


def test_coded_matrix_lamp_rows_at_a_cursor_of_many_points():
    """A GF(2) cloner lamp I + E_{0,1} + ... + E_{0,299} at the cursors 0
    and 1 of Z, with its lamp-generator neighbours: the support's 301
    sites give columns of 301 bits, past one machine word, which code as
    well as short ones."""
    halo = make_halo("cloner", GF(2), Z)
    lamp = halo.make_lamp({((0,), (i,)): 1 for i in range(1, 300)})
    support = {(lamp, (0,)), (lamp, (1,))}
    for x in list(support):
        support.update(halo.step(x, i) for i in range(halo.base_gen_offset))
    values = _random_values(random.Random(300), support)
    coded, rows, stepped = _coded_and_stepped_rows(halo, values)
    assert coded and rows == stepped
    assert _hits(rows) > _hits(_base_rows(halo, rows)) > 0


@pytest.mark.parametrize("length", [255, 256, 300])
def test_coded_lamp_rows_at_a_cursor_of_many_points(length):
    """A cycle through the points 0 .. length - 1 of Z at the cursors 0 and
    1, with its lamp-generator neighbours.  A translated generator at
    cursor 0 also moves the point -1, so the whole support moves
    length + 1 points, 256 to 301, around the 256 indices a byte holds:
    the support is coded only up to 256 points, and stepped past that."""
    halo = make_halo("shuffler", None, Z)
    cycle = halo.make_lamp({(i,): ((i + 1) % length,) for i in range(length)})
    support = {(cycle, (0,)), (cycle, (1,))}
    for x in list(support):
        support.update(halo.step(x, i) for i in range(halo.base_gen_offset))
    values = _random_values(random.Random(length), support)
    coded, rows, stepped = _coded_and_stepped_rows(halo, values)
    assert coded == (length + 1 <= 256)
    assert rows == stepped
    assert _hits(rows) > _hits(_base_rows(halo, rows)) > 0


@pytest.mark.parametrize("sites", [85, 86])
def test_coded_wreath_rows_of_many_points(sites):
    """A wreath(C3, Z) lamp with the value 1 at the sites 0 .. sites - 1, at
    the cursors 0 and 1, with its lamp-generator neighbours: the support's
    lamps sit on 255 or 258 points (site, fiber element), around the 256
    indices a byte holds, so it is coded only at 85 sites, and stepped at
    86."""
    halo = make_halo("wreath", C3, Z)
    lamp = halo.make_lamp({(i,): 1 for i in range(sites)})
    support = {(lamp, (0,)), (lamp, (1,))}
    for x in list(support):
        support.update(halo.step(x, i) for i in range(halo.base_gen_offset))
    values = _random_values(random.Random(sites), support)
    coded, rows, stepped = _coded_and_stepped_rows(halo, values)
    assert coded == (3 * sites <= 256)
    assert rows == stepped
    assert _hits(rows) > _hits(_base_rows(halo, rows)) > 0


@pytest.mark.parametrize("sites", [127, 128])
def test_coded_juggler_rows_of_many_points(sites):
    """A juggler(2, Z) lamp that cycles through the points (site, track) of
    the sites 0 .. sites - 1, at the cursors 0 and 1, with its
    lamp-generator neighbours.  A translated generator at cursor 0 also
    moves the two points of the site -1, so the support moves
    2 (sites + 1) points, 256 or 258, around the 256 indices a byte holds:
    a shuffler's |F| = 1 code over the points (site, track), coded at 127
    sites and stepped at 128."""
    halo = make_halo("juggler", 2, Z)
    points = [((i,), t) for i in range(sites) for t in range(2)]
    cycle = halo.make_lamp({x: points[(k + 1) % len(points)] for k, x in enumerate(points)})
    support = {(cycle, (0,)), (cycle, (1,))}
    for x in list(support):
        support.update(halo.step(x, i) for i in range(halo.base_gen_offset))
    values = _random_values(random.Random(sites), support)
    coded, rows, stepped = _coded_and_stepped_rows(halo, values)
    assert coded == (2 * (sites + 1) <= 256)
    assert rows == stepped
    assert _hits(rows) > _hits(_base_rows(halo, rows)) > 0


def _spy_lamp_codes(halo):
    """The list that records each later _lamp_codes call of the halo as
    (moves, lamps), the lamps read into a list."""
    calls = []
    lamp_codes = halo._lamp_codes

    def spy(moves, lamps=()):
        lamps = list(lamps)
        calls.append((moves, lamps))
        return lamp_codes(moves, lamps)

    halo._lamp_codes = spy
    return calls


def _run_of_call(halo, moves, runs):
    """The index of the one run of cursors whose sites within 3 hold every
    site of the moves."""
    sites = {x[0] for lamp in moves for x in halo.lamp_sites(lamp)}
    (k,) = [k for k, run in enumerate(runs)
            if sites <= {h + d for h in run for d in range(-3, 4)}]
    return k


def _lamps_by_generators(halo, rng, cursors, count, length):
    """count lamps at each cursor, each a product of up to length random
    lamp generators at that cursor."""
    gens = halo.generators()[:halo.base_gen_offset]
    support = set()
    for h in cursors:
        for _ in range(count):
            x = (halo.identity()[0], (h,))
            for _ in range(rng.randint(0, length)):
                x = halo.multiply(x, rng.choice(gens))
            support.add(x)
    return support


@pytest.mark.parametrize("family, params", [("cloner", GF(2)), ("juggler", 2)],
                         ids=["cloner-GF2", "juggler-2"])
def test_coded_rows_of_a_spread_support_code_each_run_alone(family, params):
    """Random lamps at the cursors 0, 1, 10, 11, 20 and 30 of Z: four runs
    of cursors joined by base generators.  The coded rows equal the stepped
    rows, and step_rows makes one _lamp_codes call per run, from the moves
    alone, which lie near that run and no other: each lamp is a product of
    the translated generators at its cursor, so its points are the moves'."""
    halo = make_halo(family, params, Z)
    rng = random.Random(f"{halo.spec} spread")
    runs = [[0, 1], [10, 11], [20], [30]]
    support = _lamps_by_generators(halo, rng, itertools.chain.from_iterable(runs), 12, 6)
    values = _random_values(rng, support)
    coded, rows, stepped = _coded_and_stepped_rows(halo, values)
    assert coded and rows == stepped
    assert _hits(_base_rows(halo, rows)) > 0 and _hits(rows) > _hits(_base_rows(halo, rows))

    calls = _spy_lamp_codes(halo)
    assert _row_pairs(halo.step_rows(values.items())) == _row_pairs(stepped)
    assert sorted(_run_of_call(halo, moves, runs) for moves, _ in calls) == list(range(len(runs)))
    assert all(lamps == [] for _, lamps in calls)


@pytest.mark.parametrize("family, params", [("cloner", GF(2)), ("juggler", 2), ("wreath", C3)],
                         ids=["cloner-GF2", "juggler-2", "wreath-C3"])
def test_coded_rows_of_a_lamp_off_the_moves_code_its_run_again(family, params):
    """Random lamps at the cursors 0, 1 and 20 of Z, and at cursor 0 the
    product of a lamp generator at 0 and its translate to 9, with its
    lamp-generator neighbours.  The moves of the run {0, 1} touch no site
    beyond -1 to 2, so the run's code from its moves alone raises KeyError
    on that lamp, and step_rows makes the code again over the run's lamps: two
    _lamp_codes calls for that run, one for the run {20}.  The coded rows
    equal the stepped rows."""
    halo = make_halo(family, params, Z)
    rng = random.Random(f"{halo.spec} off the moves")
    runs = [[0, 1], [20]]
    support = _lamps_by_generators(halo, rng, [0, 1, 20], 12, 4)
    t = halo.generators()[0][0]
    far = (halo.lamp_compose(t, halo.lamp_act((9,), t)), (0,))
    assert (9,) in halo.lamp_sites(far[0])
    support.add(far)
    support.update(halo.step(far, i) for i in range(halo.base_gen_offset))
    values = _random_values(rng, support)
    coded, rows, stepped = _coded_and_stepped_rows(halo, values)
    assert coded and rows == stepped
    assert _hits(_base_rows(halo, rows)) > 0 and _hits(rows) > _hits(_base_rows(halo, rows))

    calls = _spy_lamp_codes(halo)
    assert _row_pairs(halo.step_rows(values.items())) == _row_pairs(stepped)
    by_run = [[lamps for moves, lamps in calls if _run_of_call(halo, moves, runs) == k]
              for k in range(len(runs))]
    at_run = {id(lamp) for lamp, (h,) in values if h in runs[0]}
    assert [len(lamps_of_calls) for lamps_of_calls in by_run] == [2, 1]
    assert by_run[0][0] == [] and {id(lamp) for lamp in by_run[0][1]} == at_run
    assert by_run[1] == [[]]


@pytest.mark.parametrize("spec, size, lamp_counts", [("juggler(2, Z)", 2, [0]),
                                                     ("wreath(C2, Z)", 3, [0, 32]),
                                                     ("upcloner(GF2, Z)", 3, [0, 1024])],
                         ids=["juggler-2", "wreath-C2", "upcloner-GF2"])
def test_the_gradient_of_a_lift_codes_its_block_once(spec, size, lamp_counts):
    """The lift of 1_U, U = {0, .., size - 1}: its cursors are one run, and
    gradient_ratio hands the rows the block at every cursor, so the block
    is coded once, Lambda encodes for |U| Lambda entries.  The juggler's
    moves touch every point of V, so one code from the moves alone serves;
    the wreath's and upcloner's stop at their first lamp off the moves, and
    the code is made again over the block's lamps, listed once."""
    halo = make_group(spec)
    g = almost_invariant_lift(halo, FiniteFunction({(i,): 1 for i in range(size)}, 1))
    size_block = len(g.entries) // size
    calls = _spy_lamp_codes(halo)
    encodes = []  # per _lamp_codes call, the encode calls its code served
    lamp_codes = halo._lamp_codes

    def counting(moves, lamps=()):
        encode, operands, step = lamp_codes(moves, lamps)
        encodes.append(0)
        k = len(encodes) - 1

        def counted(a):
            encodes[k] += 1
            return encode(a)

        return counted, operands, step

    halo._lamp_codes = counting
    assert gradient_ratio(halo, g) == gradient_ratio(halo.base, FiniteFunction(
        {(i,): 1 for i in range(size)}, 1))
    assert [len(lamps) for _, lamps in calls] == lamp_counts
    assert encodes[-1] == size_block and all(0 < k <= size_block for k in encodes)
    if spec == "juggler(2, Z)":
        assert (encodes, len(g.entries)) == ([40320], 80640)
