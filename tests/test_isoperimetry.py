import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from halolab.errors import BudgetError, ContractViolation
from halolab.gf import GF
from halolab.groups import (Ball, CyclicGroup, HeisenbergGroup, ProductGroup, SymmetricGroup,
                            ZdGroup, ball, make_group)
from halolab import isoperimetry
from halolab.halo import HaloGroup, enumerate_block, make_halo
from halolab.isoperimetry import (FiniteFunction, SubsetWitness,
                                  _NeighbourTable, _beats, _carry_forward,
                                  _exact_search, _row_terms, almost_invariant_lift, boundary,
                                  folner_function, gradient_ratio,
                                  power_transform, power_transform_bound,
                                  product_boundary, profile_exact,
                                  profile_heuristic)

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


def _reference_gradient_ratio(group, f):
    """||grad f||_1 / ||f||_1 by Fraction accumulation, term by term; float
    values enter as the exact Fractions they stand for."""
    gens = group.generators()
    grad = Fraction(0)
    for g, v in f.entries.items():
        v = Fraction(v)
        for s in gens:
            w = Fraction(f.entries.get(group.multiply(g, s), 0))
            grad += abs(v - w)
            if w == 0:
                grad += abs(v)
    return grad / sum(abs(Fraction(v)) for v in f.entries.values())


def _mixed_values(rng, points):
    """Fractions of mixed signs and denominators, with some plain ints."""
    return {x: rng.randint(-4, 4) if rng.random() < 0.3
            else Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for x in points}


def test_gradient_ratio_p1_is_the_exact_fraction():
    rng = random.Random(11)
    window = sorted(ball(Z2, 3).elements)
    cases = [(Z2, FiniteFunction(_mixed_values(rng, rng.sample(window, rng.randint(1, 12))), 1))
             for _ in range(60)]
    cases.append((Z2, FiniteFunction({(0, 0): 3, (1, 0): -2, (0, 1): 7}, 1)))
    for spec, U in (("wreath(C2, Z)", [(0,), (1,)]), ("shuffler(Z)", [(0,), (1,)]),
                    ("juggler(2, Z)", [(0,)]), ("cloner(GF2, Z)", [(0,)])):
        halo = make_group(spec)
        for _ in range(2):
            f = FiniteFunction(_mixed_values(rng, U), 1)
            g = almost_invariant_lift(halo, f)
            assert gradient_ratio(halo, g) == gradient_ratio(Z, f), spec
            cases.append((halo, g))
    for group, f in cases:
        r = gradient_ratio(group, f)
        assert type(r) is Fraction
        assert r == _reference_gradient_ratio(group, f)


def test_gradient_ratio_p1_float_values_agree_with_the_exact_ratio():
    rng = random.Random(12)
    window = sorted(ball(Z2, 3).elements)
    cases = []
    for _ in range(60):
        supp = rng.sample(window, rng.randint(1, 12))
        cases.append(FiniteFunction({x: rng.uniform(-5, 5) for x in supp}, 1))
        # one float among Fractions makes the whole sum a float one
        cases.append(FiniteFunction({x: rng.uniform(-5, 5) if i == 0 else
                                     Fraction(rng.randint(1, 9), 7)
                                     for i, x in enumerate(supp)}, 1))
        # criterion 9's route to float values at p = 1
        f = FiniteFunction({x: float(rng.randint(1, 9)) for x in supp}, 3)
        cases.append(power_transform(f, Fraction(5, 2), 1))
    for f in cases:
        r = gradient_ratio(Z2, f)
        exact = _reference_gradient_ratio(Z2, f)
        assert type(r) is float
        assert abs(r - exact) <= 1e-12 * exact


def _stepwise_gradient_ratio(group, f):
    """gradient_ratio as it stood before rows: every neighbour by step, an
    integer copy of the support at p = 1, a list of float terms."""
    p = f.p
    steps = range(len(group.generators()))
    entries = f.entries
    if p == 1 and all(isinstance(v, (int, Fraction)) for v in entries.values()):
        scale = math.lcm(*{v.denominator for v in entries.values()})
        ints = {g: v.numerator * (scale // v.denominator) for g, v in entries.items()}
        grad = 0
        for g, v in ints.items():
            for i in steps:
                w = ints.get(group.step(g, i), 0)
                grad += abs(v - w)
                if w == 0:
                    grad += abs(v)
        return Fraction(grad, sum(map(abs, ints.values())))
    pf = float(p)
    terms = []
    for g, v in entries.items():
        v = float(v)
        for i in steps:
            w = float(entries.get(group.step(g, i), 0))
            terms.append(abs(v - w) ** pf)
            if w == 0.0:
                terms.append(abs(v) ** pf)
    return math.fsum(terms) ** (1.0 / pf) / f.norm()


def test_gradient_ratio_by_rows_equals_the_stepwise_loop_bit_for_bit():
    """Fractions equal and floats bit-identical at p = 1 (exact and float
    values), 2 and 3, on lifts to halos (cloner(GF3) has no lamp code) and
    on random functions on Z^2 and a halo, also ones whose equal values
    are distinct Fraction objects."""
    rng = random.Random(13)
    cases = []
    for spec, U in (("shuffler(Z)", [(0,), (1,)]), ("juggler(2, Z)", [(0,)]),
                    ("wreath(C2, Z)", [(0,), (2,)]),
                    ("designer(C2, Z)", [(0,)]), ("cloner(GF2, Z)", [(0,)]),
                    ("upcloner(GF2, Z)", [(0,), (1,)]), ("shuffler(Z x C2)", [((0,), 0)]),
                    ("upcloner(GF3, Z)", [(0,)]), ("cloner(GF3, Z)", [(0,)])):
        halo = make_group(spec)
        exact = _mixed_values(rng, U)
        for p, values in ((1, exact), (1, {u: rng.uniform(-5, 5) for u in U}),
                          (2, exact), (3, {u: rng.uniform(0.1, 5) for u in U})):
            cases.append((halo, almost_invariant_lift(halo, FiniteFunction(values, p))))
    window = sorted(ball(Z2, 3).elements)
    for p in (1, 2, 3):
        supp = rng.sample(window, 12)
        cases.append((Z2, FiniteFunction(_mixed_values(rng, supp), p)))
        cases.append((Z2, FiniteFunction({x: rng.uniform(-5, 5) for x in supp}, p)))
    for group in (Z2, make_group("shuffler(Z)")):
        supp = rng.sample(sorted(ball(group, 3).elements), 20)
        repeated = {x: Fraction(rng.choice((-2, 1, 2)), 3) for x in supp}  # a new object each
        assert len(set(map(id, repeated.values()))) == 20 > len(set(repeated.values()))
        cases.extend((group, FiniteFunction(repeated, p)) for p in (1, 2, 3))
    for group, f in cases:
        r, old = gradient_ratio(group, f), _stepwise_gradient_ratio(group, f)
        assert type(r) is type(old), (group.spec, f.p)
        if type(r) is float:
            assert r.hex() == old.hex(), (group.spec, f.p, r, old)
        else:
            assert r == old and r == _reference_gradient_ratio(group, f), (group.spec, f.p)


def _rows_reading_zero_outside(group, f):
    """The exact p = 1 ratio from rows that read 0 outside the support,
    each row's terms by _row_terms, which adds |f(g)| wherever a
    neighbour reads 0; the values must be ints or Fractions."""
    terms = itertools.chain.from_iterable(
        itertools.starmap(_row_terms, group.step_rows(f.entries.items())))
    return Fraction(sum(map(abs, terms)), sum(map(abs, f.entries.values())))


def test_exact_rows_reading_minus_f_outside_on_alternating_functions():
    """The exact path reads a neighbour outside the support as -f(g).  On
    functions whose neighbouring support values are negatives of each
    other an inside neighbour reads -f(g) too, and still counts as inside:
    on {0: 1, 1: -1} over Z each of the 4 pairs has the term 2, and a
    mirrored term added to the two inside pairs would give 6, not 4.  The
    cases: alternating +-c on a Z interval, a +- pattern on a Z^2 box, and
    lifts of alternating functions to shuffler, juggler, wreath and cloner;
    the largest lifts are checked against rows that read 0 outside and
    against the base ratio, since the term-by-term reference multiplies
    every (g, s)."""
    assert gradient_ratio(Z, FiniteFunction({(0,): 1, (1,): -1}, 1)) == 4
    def sign(k):
        return 1 - 2 * (k % 2)

    cases = [(Z, FiniteFunction({(i,): sign(i) * Fraction(7, 3) for i in range(6)}, 1)),
             (Z, FiniteFunction({(i,): sign(i) * 5 for i in range(-2, 3)}, 1)),
             (Z2, FiniteFunction({(i, j): sign(i + j) * Fraction(3, 2)
                                  for i in range(3) for j in range(4)}, 1)),
             (Z2, FiniteFunction({(i, j): sign(i // 2 + j) * 2
                                  for i in range(4) for j in range(2)}, 1))]
    for spec, size in (("shuffler(Z)", 3), ("juggler(2, Z)", 2), ("wreath(C2, Z)", 3),
                       ("cloner(GF2, Z)", 2)):
        halo = make_group(spec)
        f = FiniteFunction({(i,): sign(i) * 5 for i in range(size)}, 1)
        g = almost_invariant_lift(halo, f)
        r = gradient_ratio(halo, g)
        assert r == gradient_ratio(Z, f) == _reference_gradient_ratio(Z, f), spec
        assert r == _rows_reading_zero_outside(halo, g), spec
        if len(g.entries) <= 1000:
            cases.append((halo, g))
    for group, f in cases:
        r = gradient_ratio(group, f)
        assert type(r) is Fraction
        assert r == _reference_gradient_ratio(group, f) == _rows_reading_zero_outside(group, f)


def test_norm_exponents_below_one_are_rejected():
    with pytest.raises(ContractViolation, match="p must be >= 1"):
        gradient_ratio(Z, FiniteFunction({(0,): 1.0, (1,): 1.0}, 0.5))
    for p in (0, -1, Fraction(1, 2)):
        with pytest.raises(ContractViolation):
            FiniteFunction({(0,): Fraction(1)}, p)


def test_finite_function_drops_every_zero_and_copies_the_callers_entries():
    shared_zero = Fraction(0)
    given = {(i,): shared_zero for i in range(50)}
    given.update({(50,): 0, (51,): Fraction(0), (52,): 0.0, (53,): -0.0,
                  (54,): Fraction(1, 3), (55,): 2.5, (56,): -1})
    before = dict(given)
    f = FiniteFunction(given, 2)
    assert f.entries == {(54,): Fraction(1, 3), (55,): 2.5, (56,): -1}
    assert given == before and given is not f.entries
    assert all(type(a) is type(b) for a, b in zip(given.values(), before.values()))
    nonzero = {(0,): Fraction(1), (1,): Fraction(1)}
    g = FiniteFunction(nonzero, 1)
    assert g.entries == nonzero and g.entries is not nonzero
    nonzero[(2,)] = Fraction(1)
    assert len(g.entries) == 2
    assert FiniteFunction({(0,): 0, (1,): 0.0}, 1).entries == {}


@pytest.mark.parametrize("family, params", [("juggler", 2), ("cloner", GF(2)),
                                            ("upcloner", GF(3)), ("designer", CyclicGroup(2))])
def test_lift_entries_are_the_keyed_products_of_the_block(family, params):
    halo = make_halo(family, params, ZdGroup(1, True) if family == "upcloner" else Z)
    f = FiniteFunction({(0,): Fraction(2, 3), (1,): Fraction(-1, 5)}, 1)
    g = almost_invariant_lift(halo, f)
    V = [(-1,), (0,), (1,), (2,)]
    block = enumerate_block(halo, V)
    assert len(block) == halo.growth(len(V))
    assert g.entries == {(lamp, h): v for h, v in f.entries.items() for lamp in block}
    assert len(g.entries) == len(f.entries) * halo.growth(len(V))


def _lift_sites(halo, U):
    """V = U union U.S_H, the sites of an almost-invariant lift's block."""
    base = halo.base
    return set(U) | {base.multiply(u, s) for u in U for s in base.generators()}


def _keyed_lift(halo, f):
    """The lift as a dict filled key by key, cursor by cursor: the oracle
    of the product entries, and the loop almost_invariant_lift ran before
    it kept the product."""
    block = enumerate_block(halo, _lift_sites(halo, f.support))
    entries = {}
    for h in f.support:
        v = f(h)
        for lamp in block:
            entries[(lamp, h)] = v
    return entries


# every lift of an interval U = {0, .., size - 1} over Z whose block L(V),
# |V| = size + 2, has at most 10^4 lamps, and two halos over Z^2 at U = {0}
PRODUCT_LIFTS = ([(spec, size) for spec, sizes in
                  (("wreath(C2, Z)", (1, 2, 3)), ("shuffler(Z)", (1, 2, 3)),
                   ("juggler(2, Z)", (1,)), ("designer(C2, Z)", (1, 2, 3)),
                   ("cloner(GF2, Z)", (1,)), ("upcloner(GF2, Z:lex)", (1, 2, 3)))
                  for size in sizes]
                 + [("shuffler(Z^2)", 1), ("wreath(C2, Z^2)", 1)])


def _product_lift_case(spec, size):
    """The halo, f with non-zero mixed values on U, and f's lift."""
    halo = make_group(spec)
    U = [(i,) + (0,) * (halo.base.d - 1) for i in range(size)]
    rng = random.Random(f"{spec} {size}")
    f = FiniteFunction({u: Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12))
                        for u in U}, 1)
    return halo, f, almost_invariant_lift(halo, f)


@pytest.mark.parametrize("spec, size", PRODUCT_LIFTS)
def test_product_lift_iterates_as_the_keyed_dict(spec, size):
    """keys, values and items run in the keyed dict's order and give f's
    own value objects; len is |U| * Lambda(|V|)."""
    halo, f, g = _product_lift_case(spec, size)
    keyed = _keyed_lift(halo, f)
    lam = halo.growth(len(_lift_sites(halo, f.support)))
    assert lam <= 10 ** 4 and len(f.entries) == size
    assert len(g.entries) == len(keyed) == size * lam
    assert list(g.entries) == list(g.entries.keys()) == list(g.support) == list(keyed)
    assert list(g.entries.items()) == list(keyed.items())
    assert all(a is b for a, b in zip(g.entries.values(), keyed.values()))
    assert list(dict(g.entries).items()) == list(keyed.items()) and g.entries == keyed


@pytest.mark.parametrize("spec, size", PRODUCT_LIFTS)
def test_product_lift_lookups_agree_with_the_keyed_dict(spec, size):
    """g(x), in, get and [] give what the keyed dict gives, for lamps of
    L(V) at cursors of U, a lamp with a site outside V, a non-canonical
    payload, a cursor outside U, and keys that are no (lamp, cursor)
    pair."""
    halo, f, g = _product_lift_case(spec, size)
    keyed = _keyed_lift(halo, f)
    base = halo.base
    V = _lift_sites(halo, f.support)
    block = enumerate_block(halo, V)
    far = max(V)
    while far in V:
        far = base.multiply(far, base.generators()[0])
    outside = [lamp for lamp in enumerate_block(halo, [max(V), far])
               if far in halo.lamp_sites(lamp)]
    odd = next(lamp[::-1] for lamp in block if lamp[::-1] not in block)  # not canonical
    assert outside
    U = list(f.support)
    present = [(lamp, h) for lamp in (block[0], block[-1], odd[::-1]) for h in U]
    missing = ([(lamp, far) for lamp in block[:3]] + [(lamp, U[0]) for lamp in outside]
               + [(odd, U[-1]), (block[0], min(V - set(U))), U[0],
                  (block[0],), (block[0], U[0], U[0]), None, "xy"])
    for x in present + missing:
        assert (x in keyed) == (x in present), x
        assert g(x) == keyed.get(x, 0) and (x in g.entries) == (x in keyed), x
        assert (x in g.support) == (x in keyed), x
        assert g.entries.get(x) is keyed.get(x) and g.entries.get(x, "-") is keyed.get(x, "-"), x
        if x in keyed:
            assert g.entries[x] is keyed[x] and (x, keyed[x]) in g.entries.items(), x
        else:
            with pytest.raises(KeyError):
                g.entries[x]
    assert all(v in g.entries.values() for v in f.entries.values())
    assert Fraction(31) not in g.entries.values()


def test_finite_function_of_product_entries_equals_the_keyed_dict():
    """A FiniteFunction made from a lift's entries, at another p, holds
    the keyed dict's entries in its order, with the same norm and ratio."""
    for spec, size in (("juggler(2, Z)", 1), ("wreath(C2, Z)", 3), ("shuffler(Z^2)", 1)):
        halo, f, g = _product_lift_case(spec, size)
        keyed = _keyed_lift(halo, f)
        h, oracle = FiniteFunction(g.entries, 2), FiniteFunction(keyed, 2)
        assert h.p == 2 and h.entries == keyed
        assert list(dict(h.entries).items()) == list(keyed.items())
        assert h.norm().hex() == oracle.norm().hex()
        assert gradient_ratio(halo, h).hex() == gradient_ratio(halo, oracle).hex()


def test_iterating_product_entries_looks_no_entry_up(monkeypatch):
    """keys, values and items, and gradient_ratio over them, never read an
    entry by key: a spy on every lookup stays silent."""
    halo, f, g = _product_lift_case("designer(C2, Z)", 2)
    lookups = []

    def spy(name):
        def lookup(self, *args):
            lookups.append(name)
            raise AssertionError(f"{name} called")
        return lookup

    for name in ("__getitem__", "get", "__contains__"):
        monkeypatch.setattr(isoperimetry._LiftEntries, name, spy(name))
    keys, values = list(g.entries.keys()), list(g.entries.values())
    items = list(g.entries.items())
    assert list(zip(keys, values)) == items and len(items) == len(g.entries) == 2 * 384
    assert gradient_ratio(halo, g) == gradient_ratio(halo.base, f)
    assert FiniteFunction(g.entries, 3).norm() > 0
    assert lookups == []
    with pytest.raises(AssertionError, match="__getitem__"):
        g.entries[keys[0]]
    assert lookups == ["__getitem__"]


def test_product_lift_ratios_equal_the_keyed_lift_ratios():
    """On every criterion-1 combo (six families over Z, U = {0}, {0, 1},
    {0, 1, 2}, block within the 10^6 budget) at p = 1, 2, 3, the product
    lift's ratio is the keyed lift's: Fractions equal, floats equal bit for
    bit."""
    checked = 0
    for spec in ("wreath(C2, Z)", "shuffler(Z)", "juggler(2, Z)", "designer(C2, Z)",
                 "cloner(GF2, Z)", "upcloner(GF2, Z:lex)"):
        halo = make_group(spec)
        for size in (1, 2, 3):
            if halo.growth(size + 2) > 10 ** 6:
                continue
            for p in (1, 2, 3):
                one = Fraction(1) if p == 1 else 1.0
                f = FiniteFunction({(i,): one for i in range(size)}, p)
                new = gradient_ratio(halo, almost_invariant_lift(halo, f))
                old = gradient_ratio(halo, FiniteFunction(_keyed_lift(halo, f), p))
                assert type(new) is type(old), (spec, size, p)
                if type(new) is float:
                    assert new.hex() == old.hex(), (spec, size, p)
                else:
                    assert new == old, (spec, size, p)
                checked += 1
    assert checked == 48


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
    pts = profile_exact(Z2, 7, 6, budget=500)
    assert [pt.n for pt in pts] == list(range(1, 8))
    for pt, true_value in zip(pts, full):
        assert not pt.exact and pt.witness is not None
        A = pt.witness.A
        assert (0, 0) in A and len(A) <= pt.n
        assert _connected_from_identity(Z2, A)
        assert boundary(Z2, A).ratio == pt.value <= true_value


def _connected_from_identity(group, A):
    """Whether A is connected and holds the identity, by multiply."""
    e = group.identity()
    reached, frontier = {e}, [e]
    while frontier:
        g = frontier.pop()
        for s in group.generators():
            h = group.multiply(g, s)
            if h in A and h not in reached:
                reached.add(h)
                frontier.append(h)
    return reached == A


# Reference search: frozenset subsets and boundary() per visited set, no
# counters.  profile_exact must match it, truncated searches included: the
# rooted reference where profile_exact roots its search, and the unrooted
# one, the value oracle, everywhere.

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


def _reference_root(group):
    """pi written out per group: the element itself on Z^d and H3, the
    base's pi of the cursor on a halo; None on every other group."""
    if isinstance(group, (ZdGroup, HeisenbergGroup)):
        return lambda x: x
    if isinstance(group, HaloGroup):
        inner = _reference_root(group.base)
        if inner is not None:
            return lambda x: inner(x[1])
    return None


def _reference_window_adjacency(group, radius, root=None):
    """Window neighbours of each window vertex; with root, only those w
    with root(w) >= root(identity)."""
    window = sorted(ball(group, radius).elements)
    wset = set(window)
    if root is not None:
        floor = root(group.identity())
        wset = {w for w in wset if root(w) >= floor}
    return {v: [w for w in sorted({group.multiply(v, s) for s in group.generators()})
                if w in wset]
            for v in window}


def _reference_profile_root(group, n_max, radius):
    """The root profile_exact uses: pi when radius >= n_max - 1, else none."""
    return _reference_root(group) if radius >= n_max - 1 else None


def _reference_profile_exact(group, n_max, radius, budget, rooted=True):
    root = _reference_profile_root(group, n_max, radius) if rooted else None
    adj = _reference_window_adjacency(group, radius, root)
    best = {}
    exact = radius >= n_max - 1
    try:
        for S in _reference_connected_subsets(adj, group.identity(), n_max, budget):
            w = boundary(group, S)
            if _beats(w, best.get(len(S))):
                best[len(S)] = w
    except BudgetError:
        exact = False
    return _carry_forward(best, n_max, "exact", exact)


def _connected_subsets(table, v0, n_max, budget):
    """The exact search's enumeration and boundary counters as nested
    generators: yield (S, |dS|) for every visited set, in visit order.

    S is the live list of indices in insertion order.  Unlike the exact
    search, which scores the sets of size n_max as leaves, this adds every
    set to the counters.
    """
    targets, adj = table.targets, table.adj
    size = len(table.elements)
    cnt = [0] * size
    in_s = [False] * size
    seen = [False] * size
    seen[v0] = True
    S = []
    bnd = 0
    count = 0

    def extend(cand):
        nonlocal bnd, count
        for i, u in enumerate(cand):
            new = [w for w in adj[u] if not seen[w]]
            for w in new:
                seen[w] = True
            if cnt[u]:
                bnd -= 1
            in_s[u] = True
            S.append(u)
            for t in targets[u]:
                cnt[t] += 1
                if cnt[t] == 1 and not in_s[t]:
                    bnd += 1
            count += 1
            if count > budget:
                raise BudgetError(f"connected-subset budget exceeded ({budget})")
            yield S, bnd
            if len(S) < n_max:
                yield from extend(cand[i + 1:] + new)
            for t in targets[u]:
                cnt[t] -= 1
                if cnt[t] == 0 and not in_s[t]:
                    bnd -= 1
            S.pop()
            in_s[u] = False
            if cnt[u]:
                bnd += 1
            for w in new:
                seen[w] = False

    yield from extend([v0])


class _RepeatedGeneratorZd(ZdGroup):
    """Z^d with its generator i listed twice: two generators of a vertex
    reach one target."""

    def __init__(self, d, i):
        super().__init__(d)
        self._gens.append(self._gens[i])
        self.spec += f" with generator {i} repeated"


# (group, n_max, radius); the finite groups' windows are the whole group,
# so the search reaches a set with empty boundary (ratio +infinity).  The
# ordered groups and wreath(C2, Z) are searched rooted, except Z^2 at
# radius 3 < n_max - 1.
SEARCH_CASES = [("Z^2", 6, 5), ("H3", 6, 5), ("wreath(C2, Z)", 5, 4),
                ("C5", 6, 2), ("Sym3", 7, 3), ("Z, -1 twice", 6, 6),
                ("Z^2, -e1 twice", 5, 4), ("Z^2", 6, 3)]


def _search_group(spec):
    if spec == "Sym3":
        return SymmetricGroup(3)
    if spec == "wreath(Sym3, Z)":
        return make_halo("wreath", SymmetricGroup(3), Z)
    if spec == "Z, -1 twice":
        return _RepeatedGeneratorZd(1, 1)
    if spec == "Z^2, -e1 twice":
        return _RepeatedGeneratorZd(2, 1)
    return make_group(spec)


# each case on the plain table, and on the rooted one where the group has pi
TABLE_CASES = [pytest.param(*case, rooted,
                            id="-".join(map(str, case)) + ("-rooted" if rooted else ""))
               for rooted in (False, True) for case in SEARCH_CASES
               if not rooted or _reference_root(_search_group(case[0])) is not None]


@pytest.mark.parametrize("spec, n_max, radius, rooted", TABLE_CASES)
def test_boundary_counters_match_boundary_on_every_visited_set(spec, n_max, radius, rooted):
    group = _search_group(spec)
    root = _reference_root(group) if rooted else None
    table = _NeighbourTable(group, radius, root)
    v0 = table.elements.index(group.identity())
    reference = _reference_connected_subsets(
        _reference_window_adjacency(group, radius, root), group.identity(), n_max, 10 ** 6)
    visited = [(frozenset(table.elements[i] for i in S), bnd)
               for S, bnd in _connected_subsets(table, v0, n_max, 10 ** 6)]
    assert [A for A, _ in visited] == list(reference)  # same sets, same order
    assert len(set(A for A, _ in visited)) == len(visited)  # each set once
    for A, bnd in visited:
        assert bnd == len(boundary(group, A).boundary)
    # rooted, Z has one class per size: the interval that starts at 0
    assert len(visited) >= n_max if rooted else len(visited) > n_max
    assert sum(bnd == 0 for _, bnd in visited) == (1 if group.is_finite() else 0)


@pytest.mark.parametrize("spec, n_max, radius", SEARCH_CASES)
@pytest.mark.parametrize("budget", [1, 777, 5000, 2 * 10 ** 6])
def test_profile_exact_equals_reference_search(spec, n_max, radius, budget):
    group = _search_group(spec)
    assert profile_exact(group, n_max, radius, budget=budget) == \
        _reference_profile_exact(group, n_max, radius, budget)


@pytest.mark.parametrize("spec, n_max, radius", SEARCH_CASES)
def test_profile_exact_budget_sweep_pins_the_visit_order(spec, n_max, radius):
    """A search cut at budget b keeps the best sets among the first b of
    the reference order, rooted as profile_exact roots it: every b on
    small cases, 45 spread ones, the ends among them, on the others."""
    group = _search_group(spec)
    root = _reference_profile_root(group, n_max, radius)
    visited = list(_reference_connected_subsets(
        _reference_window_adjacency(group, radius, root), group.identity(), n_max, 10 ** 6))
    total = len(visited)
    if total <= 500:
        budgets = set(range(1, total + 1))
    else:
        budgets = {1, 2, total - 1, total} | {1 + (total - 1) * j // 44 for j in range(45)}
    assert len(budgets) >= min(total, 40)
    best = {}
    for b, S in enumerate(visited, 1):
        w = boundary(group, S)
        if _beats(w, best.get(len(S))):
            best[len(S)] = w
        if b in budgets:
            exact = b == total and radius >= n_max - 1
            assert profile_exact(group, n_max, radius, budget=b) == \
                _carry_forward(best, n_max, "exact", exact), b
    assert profile_exact(group, n_max, radius, budget=total + 1) == \
        profile_exact(group, n_max, radius, budget=total)


@pytest.mark.parametrize("spec, n_max, radius, rooted", TABLE_CASES)
@pytest.mark.parametrize("budget", [7, 100, 10 ** 6])
def test_exact_search_scores_each_best_set_by_its_boundary(spec, n_max, radius, budget, rooted):
    """The search's own |dS| for each size's best set, leaves included,
    is the boundary() size, and the set is the reference's best, on the
    unrooted and the rooted table.  Every size bound up to n_max is tried,
    so leaves are scored at every depth, {v0} + u (whose target v0 has
    cnt 0) among them."""
    group = _search_group(spec)
    root = _reference_root(group) if rooted else None
    table = _NeighbourTable(group, radius, root)
    adj = _reference_window_adjacency(group, radius, root)
    for n in range(1, n_max + 1):
        found, complete = _exact_search(table, table.elements.index(group.identity()),
                                        n, budget)
        visited = list(_reference_connected_subsets(adj, group.identity(), n, 10 ** 6))
        best = {}
        for S in visited[:budget]:
            w = boundary(group, S)
            if _beats(w, best.get(len(S))):
                best[len(S)] = w
        assert complete == (budget >= len(visited))
        assert sorted(found) == sorted(best)
        for k, (bnd, S) in found.items():
            A = frozenset(table.elements[i] for i in S)
            assert list(S) == sorted(S) and len(S) == k
            assert A == best[k].A and bnd == len(best[k].boundary), (n, k)


# The value oracle's cases: SEARCH_CASES, the configs of criteria 5 and 13,
# the benchmark's two, and halos rooted at the cursor (one nested).
ORACLE_CASES = SEARCH_CASES + [("Z", 10, 12), ("Z^2", 6, 6), ("Z^2", 9, 8), ("H3", 8, 7),
                               ("Z^3", 5, 4), ("shuffler(Z)", 5, 4), ("juggler(2, Z)", 4, 3),
                               ("designer(C2, Z)", 4, 3), ("wreath(C2, Z^2)", 4, 3),
                               ("wreath(C2, shuffler(Z))", 4, 3)]


@pytest.mark.parametrize("spec, n_max, radius", ORACLE_CASES)
def test_rooted_profile_exact_values_equal_the_unrooted_oracle(spec, n_max, radius):
    """Rooting keeps every value and exact flag of the unrooted reference;
    its witnesses are connected rooted sets with the stated ratio, and a
    search that is not rooted equals the unrooted reference outright."""
    group = _search_group(spec)
    pts = profile_exact(group, n_max, radius)
    oracle = _reference_profile_exact(group, n_max, radius, 2 * 10 ** 6, rooted=False)
    assert [(pt.value, pt.exact) for pt in pts] == [(pt.value, pt.exact) for pt in oracle]
    root = _reference_profile_root(group, n_max, radius)
    if root is None:
        assert pts == oracle
        return
    floor = root(group.identity())
    for pt in pts:
        A = pt.witness.A
        assert all(root(x) >= floor for x in A), pt.n
        assert _connected_from_identity(group, A) and boundary(group, A) == pt.witness, pt.n


def _cluster_profile(group, n_max):
    """{k: the best ratio |A|/|dA| (None for +infinity) over the clusters A
    of size k through the identity}, by brute force.  A cluster is a set
    connected in the graph that joins points at distance <= 2.  Split any
    finite set into its clusters: points of two clusters lie >= 3 apart,
    so the clusters' boundaries are disjoint and miss the other clusters,
    |dA| is their sum, and A's ratio is at most its best cluster's.  By
    left translation, the best ratio over clusters of size <= n through
    the identity is j(n).  The clusters are enumerated by exclusion, each
    once, and each boundary is grown by the added point's steps."""
    step, gens = group.step, range(len(group.generators()))
    steps, nears = {}, {}

    def targets(x):
        if x not in steps:
            steps[x] = {step(x, i) for i in gens}
        return steps[x]

    def near(x):
        if x not in nears:
            nears[x] = sorted(targets(x).union(*map(targets, targets(x))) - {x})
        return nears[x]

    best = {}

    def visit(A, out, cand, seen):
        k = len(A)
        ratio = Fraction(k, len(out)) if out else None
        if k not in best or (best[k] is not None and (ratio is None or ratio > best[k])):
            best[k] = ratio
        if k < n_max:
            for i, u in enumerate(cand):
                new = [w for w in near(u) if w not in seen]
                grown = A | {u}
                visit(grown, (out - {u}) | (targets(u) - grown), cand[i + 1:] + new,
                      seen.union(new))

    e = group.identity()
    visit(frozenset([e]), targets(e) - {e}, near(e), {e, *near(e)})
    return best


# every shipped family, and the base groups they are built over; the sizes
# run in about a second each (juggler(2, Z) at n = 4 takes 15 s)
CLUSTER_CASES = [("Z", 5), ("Z^2", 5), ("H3", 5), ("Z^3", 4), ("Z x C2", 5), ("Z x C3", 5),
                 ("Z x Z x C2", 5), ("wreath(C2, Z)", 5), ("wreath(C3, Z)", 5),
                 ("wreath(Sym3, Z)", 4), ("shuffler(Z)", 5), ("juggler(2, Z)", 3),
                 ("designer(C2, Z)", 4), ("cloner(GF2, Z)", 4), ("upcloner(GF2, Z)", 5)]


@pytest.mark.parametrize("spec, n_max", CLUSTER_CASES, ids=[spec for spec, _ in CLUSTER_CASES])
def test_profile_exact_equals_the_best_cluster_through_the_identity(spec, n_max):
    """profile_exact searches connected sets, so its values are exact over
    connected sets through the identity; j(n) is the best ratio over
    clusters (see _cluster_profile), a larger family of sets.  On the
    shipped generating sets both agree at every n up to n_max."""
    group = _search_group(spec)
    best = _cluster_profile(group, n_max)
    carried, top = [], Fraction(0)
    for n in range(1, n_max + 1):
        if top is not None and (best[n] is None or best[n] > top):
            top = best[n]
        carried.append(top)
    pts = profile_exact(group, n_max, n_max - 1)
    assert all(pt.exact for pt in pts)
    assert [pt.value for pt in pts] == carried


def test_a_cluster_can_beat_every_connected_set_off_the_shipped_generating_sets():
    """Z x C2 generated by (+-1, 0) and (+-1, 1), a set the library does
    not build: (0, 0) and (0, 1) are not adjacent and share their four
    neighbours, so {(0, 0), (0, 1)} has ratio 1/2, and every connected
    2-set has ratio 1/3.  So profile_exact is exact over connected sets
    only, and the cluster oracle sees what it misses."""
    class Diagonal(ProductGroup):
        def generators(self):
            return [((1,), 0), ((-1,), 0), ((1,), 1), ((-1,), 1)]

    group = Diagonal(Z, CyclicGroup(2))
    assert _cluster_profile(group, 2)[2] == Fraction(1, 2)
    assert boundary(group, [((0,), 0), ((0,), 1)]).ratio == Fraction(1, 2)
    assert [pt.value for pt in profile_exact(group, 2, 1)] == [Fraction(1, 4), Fraction(1, 3)]


def test_neighbour_table_targets_are_the_distinct_neighbours():
    for group in (_RepeatedGeneratorZd(2, 1), Z2, make_group("H3")):
        table = _NeighbourTable(group, 3)
        index = {g: i for i, g in enumerate(table.elements)}
        window = len(table.adj)
        assert len(table.targets) == window
        for i, g in enumerate(table.elements[:window]):
            images = [index[group.multiply(g, s)] for s in group.generators()]
            assert table.targets[i] == list(dict.fromkeys(images))
            assert len(table.targets[i]) == len(set(group.generators()))
            assert table.adj[i] == sorted({j for j in images if j < window})


def test_radius_above_n_max_minus_one_changes_nothing():
    """A connected set of size n_max that holds the identity lies in
    Ball(n_max - 1), so a larger radius gives the same points; the search
    builds no larger ball for it."""
    H3 = make_group("H3")
    assert profile_exact(H3, 5, 20) == profile_exact(H3, 5, 4)
    shuffler = make_group("shuffler(Z)")
    assert profile_exact(shuffler, 4, 12) == profile_exact(shuffler, 4, 3)


def _rooted_bfs(group, depth, root):
    """The vertices within depth steps of the identity along paths whose
    vertices x all have root(x) >= root(identity), by multiply."""
    floor = root(group.identity())
    reached = {group.identity()}
    frontier = [group.identity()]
    for _ in range(depth):
        frontier = [h for h in {group.multiply(g, s) for g in frontier
                                for s in group.generators()}
                    if h not in reached and root(h) >= floor]
        reached.update(frontier)
    return reached


@pytest.mark.parametrize("spec, n_max, radius", [("H3", 8, 7), ("wreath(C2, Z)", 6, 5)])
def test_neighbour_table_holds_the_region_a_rooted_search_reaches(monkeypatch, spec,
                                                                   n_max, radius):
    """The rooted search indexes the rooted vertices within n_max - 1
    steps through rooted vertices, first and in element order: fewer than
    the rooted part of Ball(n_max - 1), and every witness among them."""
    group = make_group(spec)
    root = _reference_root(group)
    built = []

    class Spy(_NeighbourTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(isoperimetry, "_NeighbourTable", Spy)
    pts = profile_exact(group, n_max, radius)
    (table,) = built
    region = table.elements[:len(table.adj)]
    assert region == sorted(_rooted_bfs(group, n_max - 1, root))
    floor = root(group.identity())
    kept = {x for x in ball(group, n_max - 1).elements if root(x) >= floor}
    assert set(region) < kept
    assert all(pt.exact and pt.witness.A <= set(region) for pt in pts)


def test_region_search_keeps_the_ball_memory_guard(monkeypatch):
    """The rooted breadth-first search stops at the memory budget with a
    BudgetError that names the depth and the element count it reached,
    the rooted vertices within that depth."""
    group = make_group("H3")
    root = _reference_root(group)

    class SmallBall(Ball):
        def grow(self, radius, memory_budget=20000):
            return super().grow(radius, memory_budget)

    monkeypatch.setattr(isoperimetry, "Ball", SmallBall)
    with pytest.raises(BudgetError, match=r"at radius \d+ \(\d+ elements") as info:
        _NeighbourTable(group, 7, root)
    depth, count = map(int, re.search(r"radius (\d+) \((\d+) elements",
                                      str(info.value)).groups())
    assert 0 < depth < 7
    assert count == len(_rooted_bfs(group, depth, root)) < len(ball(group, depth))


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


def _greedy_by_multiply(group, n_max):
    """profile_heuristic's greedy growth with in-set neighbours counted by
    multiply: the oracle for its count by step."""
    e = group.identity()
    best = {1: boundary(group, [e])}
    A = frozenset([e])
    while len(A) < n_max:
        w = boundary(group, A)
        if not w.boundary:
            break

        def score(u):
            in_A = sum(1 for s in group.generators() if group.multiply(u, s) in A)
            return (len(boundary(group, A | {u}).boundary), -in_A, u)

        A = A | {min(sorted(w.boundary), key=score)}
        w = boundary(group, A)
        if _beats(w, best.get(len(A))):
            best[len(A)] = w
    return _carry_forward(best, n_max, "greedy", False)


@pytest.mark.parametrize("spec", ["Z^2", "shuffler(Z)"])
def test_greedy_by_step_equals_greedy_by_multiply(spec):
    group = make_group(spec)
    pts = profile_heuristic(group, 30, "greedy")
    assert pts == _greedy_by_multiply(group, 30)
    assert len(pts[-1].witness.A) > 20  # the growth ran far


@pytest.mark.parametrize("method", ["greedy", "anneal"])
@pytest.mark.parametrize("n_max", [0, -1])
def test_profile_heuristic_rejects_n_max_below_one(method, n_max):
    """As profile_exact does: an empty profile used to come back as []."""
    with pytest.raises(ContractViolation, match="n_max must be >= 1"):
        profile_heuristic(Z, n_max, method)


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
