import ast
import math
import random
from pathlib import Path

import pytest

import halolab
from halolab.errors import BudgetError, ContractViolation
from halolab.gf import GF
from halolab.groups import Ball, CyclicGroup, SymmetricGroup, ZdGroup, ball, make_group
from halolab.halo import (FAMILIES, commutativity_constant, enumerate_block,
                          lamp_growth, log_lamp_growth, make_halo)

Z = ZdGroup(1, False)
ZLEX = ZdGroup(1, True)
Z2LEX = ZdGroup(2, True)


def _families():
    return [
        make_halo("wreath", CyclicGroup(2), Z),
        make_halo("shuffler", None, Z),
        make_halo("juggler", 2, Z),
        make_halo("designer", CyclicGroup(2), Z),
        make_halo("cloner", GF(2), Z),
        make_halo("upcloner", GF(2), ZLEX),
    ]


GROWTH_TABLE = {
    "shuffler": [1, 1, 2, 6, 24],
    "wreath": [1, 2, 4, 8, 16],
    "designer": [1, 2, 8, 48],
    "juggler": [1, 2, 24, 720],
    "cloner": [1, 1, 6, 168],
    "upcloner": [1, 1, 2, 8, 64],
}


GROWTH_PARAMS = {"wreath": 2, "shuffler": None, "juggler": 2, "designer": 2,
                 "cloner": GF(2), "upcloner": GF(2)}


def test_lamp_growth_closed_forms():
    for family, values in GROWTH_TABLE.items():
        for n, expected in enumerate(values):
            assert lamp_growth(family, GROWTH_PARAMS[family], n) == expected


def test_log_lamp_growth_is_the_log_of_lamp_growth():
    for family, params in GROWTH_PARAMS.items():
        for n in range(11):
            exact = lamp_growth(family, params, n)
            log = log_lamp_growth(family, params, n)
            if exact == 1:
                assert abs(log) <= 1e-12, (family, n, log)
            else:
                assert math.isclose(log, math.log(exact), rel_tol=1e-12), (family, n)


def test_lamp_growth_reads_the_parameter_as_the_constructor_takes_it():
    # a fiber group or its order, a GF or its order q: the same Lambda
    for family, forms in (("wreath", (CyclicGroup(3), 3)), ("designer", (CyclicGroup(2), 2)),
                          ("cloner", (GF(3), 3)), ("upcloner", (GF(4), 4))):
        for n in range(6):
            assert len({lamp_growth(family, p, n) for p in forms}) == 1, (family, n)
    halo = make_halo("designer", CyclicGroup(3), Z)
    assert [halo.growth(n) for n in range(5)] == [lamp_growth("designer", 3, n)
                                                    for n in range(5)]


# A parameter that the family's check rejects, in lamp_growth as in the
# constructor: (family, params, message).  Each used to give a wrong value
# (a float, juggler(1)'s or wreath(C1)'s Lambda) or a bare TypeError.
BAD_GROWTH_PARAMS = [
    ("cloner", 2.0, "cloner field must be a GF or an order in (2, 3, 4, 5), not 2.0"),
    ("cloner", None, "cloner field must be a GF or an order in (2, 3, 4, 5), not None"),
    ("juggler", True, "juggler track count must be an int, not True"),
    ("juggler", 0, "juggler requires at least one track"),
    ("juggler", "2", "juggler track count must be an int, not '2'"),
    ("juggler", None, "juggler track count must be an int, not None"),
    ("wreath", True, "wreath fiber must be a group, not True"),
    ("wreath", 0, "wreath fiber must be a group, not 0"),
    ("wreath", Z, "wreath fiber must be a finite group"),
    ("designer", None, "designer fiber must be a group, not None"),
]


@pytest.mark.parametrize("family, params, message", BAD_GROWTH_PARAMS,
                         ids=[f"{f}-{p!r}" for f, p, _ in BAD_GROWTH_PARAMS])
def test_lamp_growth_rejects_family_parameters(family, params, message):
    for growth in (lamp_growth, log_lamp_growth):
        with pytest.raises(ContractViolation) as exc:
            growth(family, params, 2)
        assert str(exc.value) == message


def test_enumerate_block_matches_growth():
    for halo in _families():
        values = GROWTH_TABLE[halo.family]
        for n in range(1, len(values)):
            sites = [(i,) for i in range(n)]
            block = enumerate_block(halo, sites)
            assert halo.growth(n) == values[n], (halo.family, n)
            assert len(block) == values[n], (halo.family, n)
            assert len(set(block)) == len(block)


def test_block_is_closed_under_composition_and_inverse():
    for halo in _families():
        sites = [(0,), (1,)]
        block = set(enumerate_block(halo, sites))
        sample = sorted(block, key=repr)[:8]
        for a in sample:
            assert halo.lamp_invert(a) in block
            for b in sample:
                assert halo.lamp_compose(a, b) in block


def test_block_monotone_and_intersection_compatible():
    for halo in _families():
        small = set(enumerate_block(halo, [(0,), (1,)]))
        big = set(enumerate_block(halo, [(0,), (1,), (2,)]))
        assert small <= big
        other = set(enumerate_block(halo, [(1,), (2,)]))
        meet = set(enumerate_block(halo, [(1,)]))
        assert small & other == meet


def test_group_laws_on_random_elements():
    rng = random.Random(5)
    for halo in _families():
        elems = sorted(ball(halo, 2).elements, key=repr)
        sample = rng.sample(elems, min(8, len(elems)))
        e = halo.identity()
        for a in sample:
            assert halo.multiply(a, e) == a
            assert halo.multiply(e, a) == a
            assert halo.multiply(a, halo.invert(a)) == e
            for b in sample:
                for c in sample[:3]:
                    assert halo.multiply(halo.multiply(a, b), c) == \
                        halo.multiply(a, halo.multiply(b, c))


def test_act_is_an_automorphism():
    for halo in _families():
        block = sorted(enumerate_block(halo, [(0,), (1,)]), key=repr)[:6]
        for h in [(1,), (-2,)]:
            for a in block:
                assert halo.lamp_act(h, halo.lamp_invert(a)) == \
                    halo.lamp_invert(halo.lamp_act(h, a))
                for b in block:
                    assert halo.lamp_act(h, halo.lamp_compose(a, b)) == \
                        halo.lamp_compose(halo.lamp_act(h, a), halo.lamp_act(h, b))


def test_act_translates_sites():
    for halo in _families():
        block = sorted(enumerate_block(halo, [(0,), (1,)]), key=repr)
        for a in block[:6]:
            moved = halo.lamp_act((3,), a)
            assert halo.lamp_sites(moved) == \
                frozenset(halo.base.multiply((3,), x) for x in halo.lamp_sites(a))


def test_enumeration_budget():
    sh = make_halo("shuffler", None, Z)
    with pytest.raises(BudgetError):
        enumerate_block(sh, [(i,) for i in range(8)], budget=1000)


def test_repeated_sites_give_the_block_of_the_distinct_sites():
    """L(V) depends on the set V: a repeated site changes neither the list
    nor the budget check, and every payload stays a lamp of the halo."""
    for halo in _families():
        distinct = enumerate_block(halo, [(1,), (0,)])
        repeated = [(0,), (1,), (0,), (1,), (1,)]
        assert enumerate_block(halo, repeated, budget=halo.growth(2)) == distinct
        single = enumerate_block(halo, [(0,), (0,)])
        assert single == enumerate_block(halo, [(0,)]), halo.family
        assert len(single) == halo.growth(1), halo.family
        assert all(halo.is_element((lamp, (0,))) for lamp in single + distinct)


def _entries(halo, payload):
    """The entries of a payload; a designer payload holds those of both parts."""
    return payload[0] + payload[1] if halo.family == "designer" else payload


@pytest.mark.parametrize("base", [Z, make_group("H3")], ids=lambda g: g.spec)
def test_block_payloads_share_one_object_per_distinct_entry(base):
    params = {"wreath": CyclicGroup(2), "shuffler": None, "juggler": 2,
              "designer": CyclicGroup(2), "cloner": GF(2), "upcloner": GF(2)}
    cases = [(make_halo(family, p, base), 3) for family, p in params.items()]
    cases.append((make_halo("juggler", 2, base), 4))
    cases.append((make_halo("shuffler", None, base), 5))
    window = sorted(ball(base, 2).elements)
    counts = {}
    for halo, n in cases:
        block = enumerate_block(halo, window[:n])
        objects = {id(e) for payload in block for e in _entries(halo, payload)}
        distinct = {e for payload in block for e in _entries(halo, payload)}
        assert len(objects) == len(distinct), (halo.spec, n)
        counts[halo.family, n] = len(distinct)
    # every (point, image) pair of distinct points: 8 * 7 and 5 * 4
    assert counts["juggler", 4] == 56 and counts["shuffler", 5] == 20


def test_commutativity_constants():
    wr = make_halo("wreath", CyclicGroup(2), Z)
    D, witness = commutativity_constant(wr, 3, 10 ** 5)
    assert D == 0 and witness is None
    for halo in (make_halo("shuffler", None, Z), make_halo("cloner", GF(2), Z)):
        D, witness = commutativity_constant(halo, 3, 10 ** 5)
        assert D == 1
        a, b = witness
        assert halo.multiply(a, b) != halo.multiply(b, a)


def test_commutativity_constant_reads_the_whole_window():
    """The window is all of Ball(radius): at radius 1 the transpositions
    at {-1, 0} and {-1, 1} already fail to commute.  Witnesses are the
    first pair found, in element order."""
    sh = make_halo("shuffler", None, Z)

    def swap(x, y):
        return (sh.make_lamp({(x,): (y,), (y,): (x,)}), (0,))

    assert commutativity_constant(sh, 1) == (1, (swap(-1, 0), swap(-1, 1)))
    assert commutativity_constant(sh, 2) == (1, (swap(-2, -1), swap(-2, 0)))


def test_enumerate_block_rejects_sites_that_are_not_base_elements(monkeypatch):
    grown = []
    monkeypatch.setattr(Ball, "grow", lambda self, *a, **k: grown.append(a))
    wr = make_halo("wreath", CyclicGroup(2), Z)
    for sites in ([(0, 1), (2, 3)], [(0,), 1], [(0,), (True,)], [(0,), (0.5,)]):
        with pytest.raises(ContractViolation, match="is not an element of Z"):
            enumerate_block(wr, sites)
    assert grown == []  # rejected before any ball is grown
    nested = make_halo("shuffler", None, wr)
    with pytest.raises(ContractViolation, match=r"is not an element of wreath\(C2, Z\)"):
        enumerate_block(nested, [wr.identity(), (0,)])
    assert len(enumerate_block(nested, [wr.identity(), wr.generators()[0]])) == 2


def test_make_halo_builds_each_family_from_its_table_entry():
    for family, params in [("wreath", CyclicGroup(2)), ("shuffler", 3), ("juggler", 2),
                           ("designer", CyclicGroup(2)), ("cloner", 3), ("upcloner", 2)]:
        halo = make_halo(family, params, Z)
        assert type(halo) is FAMILIES[family] and halo.family == family
    assert make_halo("shuffler", 3, Z).params is None  # the shuffler has no parameter
    assert make_halo("cloner", 3, Z).gf == GF(3)
    with pytest.raises(ContractViolation, match="^unknown halo family 'nope'$"):
        make_halo("nope", None, Z)


def test_make_halo_rejects_a_fiber_that_is_no_finite_group():
    for family in ("wreath", "designer"):
        for params, message in ((2, f"{family} fiber must be a group, not 2"),
                                (None, f"{family} fiber must be a group, not None"),
                                (Z, f"{family} fiber must be a finite group")):
            with pytest.raises(ContractViolation) as exc:
                make_halo(family, params, Z)
            assert str(exc.value) == message


# A family parameter of the wrong type: (family, params, message).  A bool
# or a float equal to an int would otherwise give a spec that does not
# parse back, or a bare TypeError later.
BAD_PARAMS = [
    ("juggler", True, "juggler track count must be an int, not True"),
    ("juggler", 2.0, "juggler track count must be an int, not 2.0"),
    ("juggler", "2", "juggler track count must be an int, not '2'"),
    ("juggler", 0, "juggler requires at least one track"),
    ("cloner", 2.0, "cloner field must be a GF or an order in (2, 3, 4, 5), not 2.0"),
    ("cloner", True, "cloner field must be a GF or an order in (2, 3, 4, 5), not True"),
    ("upcloner", "2", "upcloner field must be a GF or an order in (2, 3, 4, 5), not '2'"),
    ("cloner", 7, "cloner field must be a GF or an order in (2, 3, 4, 5), not 7"),
]


@pytest.mark.parametrize("family, params, message", BAD_PARAMS,
                         ids=[f"{f}-{p!r}" for f, p, _ in BAD_PARAMS])
def test_make_halo_rejects_family_parameters(family, params, message):
    with pytest.raises(ContractViolation) as exc:
        make_halo(family, params, Z)
    assert str(exc.value) == message
    if family != "juggler":  # GF keeps its own message
        with pytest.raises(ContractViolation) as exc:
            GF(params)
        assert str(exc.value) == f"GF({params!r}) not supported; q must be one of (2, 3, 4, 5)"


def test_upcloner_requires_ordered_base():
    for base in (CyclicGroup(5), make_group("Z x C3")):
        with pytest.raises(ContractViolation, match="order required"):
            make_halo("upcloner", GF(2), base)


def test_cloner_rejects_singular_lamp():
    cl = make_halo("cloner", GF(2), Z)
    # [[1,1],[1,1]] has zero determinant over GF(2)
    with pytest.raises(ContractViolation):
        cl.make_lamp({((0,), (1,)): 1, ((1,), (0,)): 1})
    # the transposition-like matrix [[0,1],[1,0]] IS invertible
    lamp = cl.make_lamp({((0,), (0,)): 0, ((0,), (1,)): 1,
                         ((1,), (0,)): 1, ((1,), (1,)): 0})
    assert cl.lamp_compose(lamp, lamp) == cl.lamp_identity()


def test_gluing_holds_for_five_families():
    """L({a, b}) is contained in the group generated by L({a, c}) and
    L({c, b}) when c is a midpoint — for every family except the upcloner."""
    for halo in _families():
        if halo.family == "upcloner":
            continue
        a, c, b = (0,), (1,), (2,)
        target = set(enumerate_block(halo, [a, b]))
        gens = set(enumerate_block(halo, [a, c])) | set(enumerate_block(halo, [c, b]))
        closure = set(gens)
        frontier = list(gens)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = halo.lamp_compose(x, g)
                    if y not in closure:
                        closure.add(y)
                        nxt.append(y)
            frontier = nxt
        assert target <= closure, halo.family


def test_gluing_fails_for_upcloner_over_z2():
    """Over Z^2-lex the two generable transvections on a 3-site triangle
    span only 4 of the 8 block elements: the pair with displacement
    outside N^2 is unreachable."""
    up = make_halo("upcloner", GF(2), Z2LEX)
    a, b, c = (0, 0), (0, 1), (1, 0)
    block = enumerate_block(up, [a, b, c])
    assert len(block) == 8
    gens = {up.make_lamp({(a, b): 1}), up.make_lamp({(a, c): 1})}
    closure = set(gens) | {up.lamp_identity()}
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = up.lamp_compose(x, g)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(closure) == 4
    assert up.make_lamp({(b, c): 1}) not in closure
    assert len(closure) < len(block)


def test_generator_counts_over_gf2_and_z():
    cl = make_halo("cloner", GF(2), Z)
    # GF(2): no diagonal generators, transvections for s = +-1, 2 base moves
    assert len(cl.generators()) == 4
    up = make_halo("upcloner", GF(2), ZLEX)
    # positive direction only for the transvection, 2 base moves
    assert len(up.generators()) == 3


def test_halo_ball_word_metric_symmetric():
    sh = make_halo("shuffler", None, Z)
    b = ball(sh, 3)
    for g in sorted(b.elements, key=repr)[:40]:
        inv = sh.invert(g)
        assert inv in b and b.lengths[inv] == b.lengths[g]


def test_generators_returns_a_copy():
    for halo in _families():
        count = len(halo.generators())
        halo.generators().append("x")
        assert len(halo.generators()) == count, halo.family


def _reversed_mapping(halo, lamp):
    """The mapping make_lamp takes, read off a payload in reverse order."""
    if halo.family == "designer":
        return (dict(reversed(lamp[0])), dict(reversed(lamp[1])))
    return dict(reversed(lamp))


def test_make_lamp_rebuilds_every_block_element():
    for halo in _families():
        for sites in ([(0,)], [(-1,), (1,)], [(0,), (1,), (2,)]):
            for lamp in enumerate_block(halo, sites):
                assert halo.make_lamp(_reversed_mapping(halo, lamp)) == lamp, \
                    (halo.family, lamp)


def test_make_lamp_rejects_non_lamps():
    sh = make_halo("shuffler", None, Z)
    ju = make_halo("juggler", 2, Z)
    de = make_halo("designer", CyclicGroup(2), Z)
    wr = make_halo("wreath", CyclicGroup(2), Z)
    bad = [
        (sh, {(0,): (1,)}),
        (sh, {(0,): (2,), (1,): (2,), (2,): (0,)}),
        (ju, {((0,), 0): ((1,), 0)}),
        (ju, {((0,), 0): ((0,), 1), ((0,), 1): ((0,), 1)}),
        (de, ({}, {(0,): (1,)})),
        (de, ({(0,): 2}, {})),
        (wr, {(0,): 2}),
        (make_halo("cloner", GF(2), Z), {((0,), (1,)): 5}),
        (make_halo("cloner", GF(3), Z), {((0,), (0,)): -1}),
        (make_halo("upcloner", GF(2), Z), {((0,), (1,)): 2}),
    ]
    for halo, entries in bad:
        with pytest.raises(ContractViolation):
            halo.make_lamp(entries)


def test_lamp_payload_helpers_stay_private():
    """No halolab module imports a _-prefixed name (dunders aside) from
    another one, and only halo.py names the _perm_/_map_/_mat_ payload
    helpers."""
    for path in sorted(Path(halolab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("halolab")):
                private = [a.name for a in node.names
                           if a.name.startswith("_") and not a.name.endswith("__")]
                assert not private, f"{path.name}:{node.lineno} imports {private}"
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else "")
            assert path.name == "halo.py" or not name.startswith(
                ("_perm_", "_map_", "_mat_")), f"{path.name}:{node.lineno} names {name}"


# v -> term, as the lamp codes have read them since the fiber terms came in
FIBER_TERMS = {
    "C2": {0: 0, 1: -255},
    "C3": {0: 0, 1: -65790, 2: -130815},
    "Sym3": {(0, 1, 2): 0, (0, 2, 1): -2207579504895, (1, 0, 2): -1095250345470,
             (1, 2, 0): -3302880246780, (2, 0, 1): -4415209406205,
             (2, 1, 0): -5510459751675},
}


@pytest.mark.parametrize("family", ["wreath", "designer"])
def test_fiber_terms_are_a_plain_attribute_made_on_first_use(family):
    """_fiber_terms is made on first use, kept in an ordinary instance
    attribute (no functools.cached_property, whose direct __dict__ write
    slows later attribute reads), and holds the same terms as before."""
    for fiber in (CyclicGroup(2), CyclicGroup(3), SymmetricGroup(3)):
        halo = make_halo(family, fiber, Z)
        assert "_fiber_term_table" not in vars(halo)
        terms = halo._fiber_terms
        assert terms == FIBER_TERMS[fiber.spec]
        assert halo._fiber_terms is terms is vars(halo)["_fiber_term_table"]
    assert type(vars(halolab.halo._FiberHalo)["_fiber_terms"]) is property
