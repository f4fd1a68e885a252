import dataclasses
import random

import pytest

from conftest import assert_ball_is_fresh
from halolab import groups
from halolab.errors import (ContractViolation, NotInDomainError,
                            UnsupportedFamilyError)
from halolab.groups import CyclicGroup, ZdGroup, ball
from halolab.embeddings import (GroupMorphism, coset_system_mZ, doubling,
                                lamplighter_in_halo, shuffler_endomorphism,
                                wreath_in_shuffler)
from halolab.halo import make_halo

Z = ZdGroup(1, False)


def _assert_all_checks_pass(morphism, pairs=500, radius=3):
    results = morphism.check(pairs=pairs, radius=radius)
    for prop, (ok, extra) in results.items():
        assert ok, (morphism.name, prop, extra)


def test_coset_system_factorization():
    # every h in Ball(6) of Z factors as k * s with k in mZ, s in the transversal
    for m in (2, 3, 4):
        cosets = coset_system_mZ(m)
        transversal = set(cosets.transversal)
        for h in ball(Z, 6).elements:
            k, s = cosets.decompose(h)
            assert cosets.member(k) and s in transversal and Z.multiply(k, s) == h


def test_wreath_in_shuffler_closed_form():
    phi = wreath_in_shuffler(Z, coset_system_mZ(2))
    tau01 = (tuple(sorted({(0,): (1,), (1,): (0,)}.items())), (0,))
    assert phi.map(tau01) == ((((0,), (1, 0)),), (0,))
    assert phi.preserves_identity()


def test_wreath_in_shuffler_properties():
    phi = wreath_in_shuffler(Z, coset_system_mZ(2))
    _assert_all_checks_pass(phi)


def test_wreath_in_shuffler_domain_membership():
    phi = wreath_in_shuffler(Z, coset_system_mZ(2))
    # cursor outside 2Z
    with pytest.raises(NotInDomainError):
        phi.map((tuple(sorted({(0,): (1,), (1,): (0,)}.items())), (1,)))
    # permutation mixing two cosets: swaps 1 and 2
    with pytest.raises(NotInDomainError):
        phi.map((tuple(sorted({(1,): (2,), (2,): (1,)}.items())), (0,)))


def test_shuffler_endomorphism_closed_form():
    end = shuffler_endomorphism(Z)
    tau01 = (tuple(sorted({(0,): (1,), (1,): (0,)}.items())), (0,))
    tau02 = (tuple(sorted({(0,): (2,), (2,): (0,)}.items())), (0,))
    assert end.map(tau01) == tau02


def test_shuffler_endomorphism_properties_and_witness():
    end = shuffler_endomorphism(Z)
    _assert_all_checks_pass(end)
    w = end.not_surjective_witness
    assert w is not None
    # the witness really has no preimage on the working ball
    for g in ball(end.domain, 4).elements:
        assert end.map(g) != w


def test_shuffler_endomorphism_iterates():
    end = shuffler_endomorphism(Z)
    seen = {}
    for g in ball(end.domain, 3).elements:
        img = end.map(end.map(g))
        assert img not in seen or seen[img] == g
        seen[img] = g
    assert end.not_surjective_witness not in seen


def test_check_builds_one_domain_ball(monkeypatch):
    expected = lamplighter_in_halo("juggler", 2, Z).check(pairs=200, radius=2)
    morphism = lamplighter_in_halo("juggler", 2, Z)
    built = []
    init = groups.Ball.__init__

    def spy_init(self, group, *args):
        built.append(group)
        init(self, group, *args)

    monkeypatch.setattr(groups.Ball, "__init__", spy_init)
    assert morphism.check(pairs=200, radius=3)["injective_on_ball"] == (True, None)
    assert built == [morphism.domain]
    # a smaller radius reads the same ball, cut to that radius
    assert morphism.check(pairs=200, radius=2) == expected
    assert built == [morphism.domain]
    monkeypatch.undo()
    assert morphism.domain.cayley_ball.radius == 3
    assert_ball_is_fresh(morphism.domain.cayley_ball)


def test_lamplighter_in_juggler():
    _assert_all_checks_pass(lamplighter_in_halo("juggler", 2, Z))


def test_lamplighter_in_designer():
    _assert_all_checks_pass(lamplighter_in_halo("designer", CyclicGroup(2), Z))


def test_lamplighter_in_cloner():
    for q in (3, 4, 5):
        _assert_all_checks_pass(lamplighter_in_halo("cloner", q, Z),
                                pairs=200, radius=2)


def test_cloner_gf2_rejected():
    with pytest.raises(UnsupportedFamilyError):
        lamplighter_in_halo("cloner", 2, Z)


def test_unknown_family_rejected():
    with pytest.raises(UnsupportedFamilyError):
        lamplighter_in_halo("shuffler", None, Z)


def test_lamplighter_in_halo_rejects_family_parameters():
    # the codomain is built by make_halo first, so its family check reads params
    for family, params, message in (
            ("juggler", 2.7, "juggler track count must be an int, not 2.7"),
            ("juggler", CyclicGroup(2), "juggler track count must be an int, not <group C2>"),
            ("designer", 2, "designer fiber must be a group, not 2"),
            ("cloner", None, "cloner field must be a GF or an order in (2, 3, 4, 5), not None")):
        with pytest.raises(ContractViolation) as exc:
            lamplighter_in_halo(family, params, Z)
        assert str(exc.value) == message
    with pytest.raises(ContractViolation, match="needs >= 2 tracks"):
        lamplighter_in_halo("juggler", 1, Z)


def test_check_reports_a_map_that_is_no_homomorphism():
    # doubling the cursor but leaving the lamp where it is: (sigma, h)(tau, k)
    # translates tau by h, the image translates it by 2h
    shuffler = make_halo("shuffler", None, Z)
    morphism = GroupMorphism(shuffler, shuffler, lambda g: (g[0], (2 * g[1][0],)),
                             name="untranslated doubling")
    results = morphism.check(pairs=200, radius=2)
    ok, pair = results["homomorphism"]
    assert not ok
    a, b = pair
    assert morphism.map(shuffler.multiply(a, b)) != \
        shuffler.multiply(morphism.map(a), morphism.map(b))
    assert results["identity"] == (True, None)
    assert results["injective_on_ball"] == (True, None)


def test_check_reports_a_map_that_is_not_injective():
    # forgetting the lamp is a homomorphism onto the base, not injective
    shuffler = make_halo("shuffler", None, Z)
    morphism = GroupMorphism(shuffler, shuffler, lambda g: ((), g[1]),
                             name="forget the lamp")
    results = morphism.check(pairs=200, radius=2)
    assert results["injective_on_ball"] == (False, None)
    assert results["homomorphism"] == (True, None)
    assert results["identity"] == (True, None)


def test_doubling_endomorphism():
    psi = doubling(2)
    assert psi.map((1, -3)) == (2, -6)
    assert psi.in_image((2, 4)) and not psi.in_image((1, 2))


# ---------------------------------------------------------------------------
# check maps each domain-ball element once; the oracle maps a, b and ab at
# every draw, from the same sorted ball and the same seed

def _criterion_11_morphisms():
    return [wreath_in_shuffler(Z, coset_system_mZ(2)), shuffler_endomorphism(Z),
            lamplighter_in_halo("juggler", 2, Z),
            lamplighter_in_halo("designer", CyclicGroup(2), Z),
            lamplighter_in_halo("cloner", 3, Z)]


def _filtered_ball(morphism, radius):
    return sorted(g for g, l in ball(morphism.domain, radius).lengths.items()
                  if l <= radius and (morphism.member is None or morphism.member(g)))


def _per_draw_check(morphism, pairs, radius, seed):
    domain, codomain, phi, member = (morphism.domain, morphism.codomain,
                                     morphism.map, morphism.member)
    elems = _filtered_ball(morphism, radius)
    rng = random.Random(seed)
    cex = None
    for _ in range(pairs):
        a, b = rng.choice(elems), rng.choice(elems)
        ab = domain.multiply(a, b)
        if member is not None and not member(ab):
            continue
        if phi(ab) != codomain.multiply(phi(a), phi(b)):
            cex = (a, b)
            break
    images = [phi(g) for g in elems]
    out = {"identity": (phi(domain.identity()) == codomain.identity(), None),
           "homomorphism": (cex is None, cex),
           "injective_on_ball": (len(set(images)) == len(images), None)}
    if morphism.not_surjective_witness is not None:
        out["not_surjective"] = (True, morphism.not_surjective_witness)
    return out


def test_check_equals_a_per_draw_loop():
    for morphism in _criterion_11_morphisms():
        for seed in (0, 1, 7919):
            assert morphism.check(pairs=1000, radius=4, seed=seed) == \
                _per_draw_check(morphism, 1000, 4, seed), (morphism.name, seed)


def test_counterexample_equals_the_per_draw_loop():
    shuffler = make_halo("shuffler", None, Z)
    morphism = GroupMorphism(shuffler, shuffler, lambda g: (g[0], (2 * g[1][0],)),
                             name="untranslated doubling")
    for seed in range(5):
        cex = morphism.homomorphism_counterexample(pairs=200, radius=2, seed=seed)
        assert cex is not None
        assert (False, cex) == _per_draw_check(morphism, 200, 2, seed)["homomorphism"]


def test_check_maps_each_ball_element_once():
    """At most one map call per filtered ball element, one per drawn product
    and one for preserves_identity; a second check at the same radius maps
    only the products and the identity again."""
    for morphism in _criterion_11_morphisms():
        calls = []
        counted = dataclasses.replace(morphism, map=lambda g, phi=morphism.map:
                                      calls.append(g) or phi(g))
        assert counted.check(pairs=300, radius=3) == morphism.check(pairs=300, radius=3)
        ball_elements = _filtered_ball(morphism, 3)
        assert set(ball_elements) <= set(calls)
        assert len(calls) <= len(ball_elements) + 300 + 1, morphism.name
        calls.clear()
        counted.check(pairs=300, radius=3, seed=1)
        assert len(calls) <= 300 + 1, morphism.name


def _draws(elems, pairs, seed):
    """The (a, b) of each draw of homomorphism_counterexample, in order."""
    rng = random.Random(seed)
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(pairs)]


def test_check_multiplies_each_distinct_draw_once(monkeypatch):
    """The coset-preserving ball has 14 elements, so 1000 draws fall on at
    most 196 ordered pairs: at most one product on each side per pair."""
    morphism = wreath_in_shuffler(Z, coset_system_mZ(2))
    products = {"domain": 0, "codomain": 0}
    for side in products:
        group = getattr(morphism, side)

        def counted(a, b, side=side, multiply=group.multiply):
            products[side] += 1
            return multiply(a, b)

        monkeypatch.setattr(group, "multiply", counted)
    assert all(ok for ok, _ in morphism.check(pairs=1000, radius=4).values())
    elems = _filtered_ball(morphism, 4)
    assert len(elems) == 14
    distinct = len(set(_draws(elems, 1000, 0)))
    assert products["domain"] == distinct <= 196
    assert products["codomain"] <= distinct


def test_check_maps_each_product_outside_the_ball_once():
    for morphism in _criterion_11_morphisms():
        calls = []
        counted = dataclasses.replace(morphism, map=lambda g, phi=morphism.map:
                                      calls.append(g) or phi(g))
        assert counted.check(pairs=1000, radius=4, seed=1) == \
            morphism.check(pairs=1000, radius=4, seed=1)
        ball_elements = set(_filtered_ball(morphism, 4))
        outside = [g for g in calls if g not in ball_elements]
        assert outside, morphism.name
        assert len(outside) == len(set(outside)), morphism.name


def test_skipped_products_of_repeated_draws_equal_the_per_draw_loop():
    """member is not closed under products (cursors -1 and -1 make -2), so
    the check skips some products, and some draws repeat a skipped pair."""
    shuffler = make_halo("shuffler", None, Z)
    morphism = GroupMorphism(shuffler, shuffler, lambda g: g, name="identity near 0",
                             member=lambda g: abs(g[1][0]) <= 1)
    elems = _filtered_ball(morphism, 2)
    for seed in range(3):
        seen, repeated_skips = set(), 0
        for a, b in _draws(elems, 200, seed):
            if (a, b) in seen and not morphism.member(shuffler.multiply(a, b)):
                repeated_skips += 1
            seen.add((a, b))
        assert repeated_skips, seed
        assert morphism.check(pairs=200, radius=2, seed=seed) == \
            _per_draw_check(morphism, 200, 2, seed)


def test_counterexample_after_a_repeated_draw_equals_the_per_draw_loop():
    """The map is wrong only at cursor 4, which in Ball(2) only the pair
    (t^2, t^2) reaches, so most draws pass and repeat before it is drawn."""
    shuffler = make_halo("shuffler", None, Z)
    morphism = GroupMorphism(shuffler, shuffler,
                             lambda g: (g[0], (5,)) if g[1] == (4,) else g,
                             name="wrong at cursor 4")
    elems = _filtered_ball(morphism, 2)
    t2 = ((), (2,))
    late = 0
    for seed in range(10):
        cex = morphism.homomorphism_counterexample(pairs=1000, radius=2, seed=seed)
        assert cex == (t2, t2)
        assert (False, cex) == _per_draw_check(morphism, 1000, 2, seed)["homomorphism"]
        draws = _draws(elems, 1000, seed)
        first = draws.index(cex)
        late += len(set(draws[:first])) < first  # a repeat came before it
    assert late >= 5


def test_check_rejects_no_pairs_and_a_negative_radius():
    morphism = shuffler_endomorphism(Z)
    for call in (lambda: morphism.check(pairs=0),
                 lambda: morphism.homomorphism_counterexample(pairs=0)):
        with pytest.raises(ContractViolation, match="pairs >= 1, not 0"):
            call()
    for call in (lambda: morphism.check(radius=-1),
                 lambda: morphism.homomorphism_counterexample(radius=-1),
                 lambda: morphism.injective_on_ball(radius=-1)):
        with pytest.raises(ContractViolation, match="radius must be >= 0, not -1"):
            call()
