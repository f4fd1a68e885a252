import dataclasses

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


def _assert_all_checks_pass(morphism, radius=3):
    results = morphism.check(radius=radius)
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
    expected = lamplighter_in_halo("juggler", 2, Z).check(radius=2)
    morphism = lamplighter_in_halo("juggler", 2, Z)
    built = []
    init = groups.Ball.__init__

    def spy_init(self, group, *args):
        built.append(group)
        init(self, group, *args)

    monkeypatch.setattr(groups.Ball, "__init__", spy_init)
    assert morphism.check(radius=3)["injective_on_ball"] == (True, None)
    assert built == [morphism.domain]
    # a smaller radius reads the same ball, cut to that radius
    assert morphism.check(radius=2) == expected
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
        _assert_all_checks_pass(lamplighter_in_halo("cloner", q, Z), radius=2)


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


def test_doubling_endomorphism():
    psi = doubling(2)
    assert psi.map((1, -3)) == (2, -6)
    assert psi.in_image((2, 4)) and not psi.in_image((1, 2))


# ---------------------------------------------------------------------------
# check against a brute-force oracle that calls phi afresh on every pair

def _criterion_11_morphisms():
    return [wreath_in_shuffler(Z, coset_system_mZ(2)), shuffler_endomorphism(Z),
            lamplighter_in_halo("juggler", 2, Z),
            lamplighter_in_halo("designer", CyclicGroup(2), Z),
            lamplighter_in_halo("cloner", 3, Z)]


def _oracle(morphism, radius):
    """The verdict on each property, and the set of pairs (a, b) with
    phi(ab) != phi(a)phi(b): every pair with |a| + |b| <= radius, or, on a
    restricted domain, every pair of members of Ball(radius) whose
    product is a member."""
    domain, codomain, phi, member = (morphism.domain, morphism.codomain,
                                     morphism.map, morphism.member)
    lengths = ball(domain, radius).lengths
    if member is None:
        elems = list(lengths)
        pairs = [(a, b) for a in elems for b in elems if lengths[a] + lengths[b] <= radius]
    else:
        elems = [g for g in lengths if member(g)]
        pairs = [(a, b) for a in elems for b in elems if member(domain.multiply(a, b))]
    failing = {(a, b) for a, b in pairs
               if phi(domain.multiply(a, b)) != codomain.multiply(phi(a), phi(b))}
    images = [phi(g) for g in elems]
    verdicts = {"identity": phi(domain.identity()) == codomain.identity(),
                "homomorphism": not failing,
                "injective_on_ball": len(set(images)) == len(images)}
    if morphism.not_surjective_witness is not None:
        verdicts["not_surjective"] = True
    return verdicts, failing


def _check_equals_the_oracle(morphism, radius):
    """check's results, after asserting its verdicts are the oracle's and
    its counterexample, if any, is a failing pair of the oracle."""
    results = morphism.check(radius=radius)
    verdicts, failing = _oracle(morphism, radius)
    assert {prop: ok for prop, (ok, _) in results.items()} == verdicts, (morphism.name, radius)
    ok, cex = results["homomorphism"]
    assert (cex is None) == ok and (ok or cex in failing), (morphism.name, radius, cex)
    assert results["identity"][1] is None and results["injective_on_ball"][1] is None
    return results


def test_check_equals_the_oracle_on_the_criterion_11_morphisms():
    for morphism in _criterion_11_morphisms():
        for radius in (1, 2, 3, 4):
            results = _check_equals_the_oracle(morphism, radius)
            assert all(ok for ok, _ in results.values()), (morphism.name, radius)
            # pairs and seed are kept in the signature and choose nothing
            assert morphism.check(pairs=0, radius=radius, seed=7919) == results
        if morphism.not_surjective_witness is not None:
            assert results["not_surjective"] == (True, morphism.not_surjective_witness)


def test_check_reports_a_map_that_is_no_homomorphism():
    # doubling the cursor but leaving the lamp where it is: (sigma, h)(tau, k)
    # translates tau by h, the image translates it by 2h
    shuffler = make_halo("shuffler", None, Z)
    morphism = GroupMorphism(shuffler, shuffler, lambda g: (g[0], (2 * g[1][0],)),
                             name="untranslated doubling")
    results = _check_equals_the_oracle(morphism, 2)
    assert not results["homomorphism"][0]
    assert results["identity"] == (True, None)
    assert results["injective_on_ball"] == (True, None)


def test_check_reports_a_map_that_is_not_injective():
    # forgetting the lamp is a homomorphism onto the base, not injective
    shuffler = make_halo("shuffler", None, Z)
    morphism = GroupMorphism(shuffler, shuffler, lambda g: ((), g[1]),
                             name="forget the lamp")
    results = _check_equals_the_oracle(morphism, 2)
    assert results["injective_on_ball"] == (False, None)
    assert results["homomorphism"] == (True, None)
    assert results["identity"] == (True, None)


def test_check_covers_exactly_the_pairs_with_length_sum_within_the_radius():
    """The map is wrong only at cursor 4.  At radius 4 the pair (t^3, t)
    reaches it; at radius 3 no product with |a| + |b| <= 3 does, so the
    check passes there, as the oracle does."""
    shuffler = make_halo("shuffler", None, Z)
    morphism = GroupMorphism(shuffler, shuffler,
                             lambda g: (g[0], (5,)) if g[1] == (4,) else g,
                             name="wrong at cursor 4")
    ok, cex = _check_equals_the_oracle(morphism, 4)["homomorphism"]
    assert not ok and shuffler.multiply(*cex)[1] == (4,)
    assert _check_equals_the_oracle(morphism, 3)["homomorphism"] == (True, None)


def test_check_skips_member_pairs_whose_product_is_no_member():
    """member is not closed under products (cursors 1 and 1 make 2), so
    the check skips such pairs, as the oracle does."""
    shuffler = make_halo("shuffler", None, Z)
    morphism = GroupMorphism(shuffler, shuffler, lambda g: g, name="identity near 0",
                             member=lambda g: abs(g[1][0]) <= 1)
    for radius in (1, 2, 3):
        elems = [g for g in ball(shuffler, radius).elements if morphism.member(g)]
        assert any(not morphism.member(shuffler.multiply(a, b))
                   for a in elems for b in elems)
        results = _check_equals_the_oracle(morphism, radius)
        assert all(ok for ok, _ in results.values()), radius


def test_check_maps_only_the_ball_on_an_unrestricted_domain():
    """One map call per ball element and one for preserves_identity: every
    product g * s the check compares lies in the ball.  A second check at
    the same radius maps only the identity again."""
    for morphism in _criterion_11_morphisms()[1:]:
        calls = []
        counted = dataclasses.replace(morphism, map=lambda g, phi=morphism.map:
                                      calls.append(g) or phi(g))
        assert counted.check(radius=3) == morphism.check(radius=3)
        ball_elements = list(ball(morphism.domain, 3).elements)
        assert sorted(calls) == sorted(ball_elements + [morphism.domain.identity()])
        calls.clear()
        counted.check(radius=3)
        assert calls == [morphism.domain.identity()], morphism.name


def test_check_multiplies_each_listed_pair_once(monkeypatch):
    """At radius 4: (1, 1) and (g, s) for g in Ball(3), s a generator, on
    the lamplighter embeddings (22 * 3 + 1 = 67 pairs); every ordered pair
    of the 14 coset-preserving elements on wreath_in_shuffler (196).  The
    endomorphism is left out: its domain is its codomain."""
    morphisms = _criterion_11_morphisms()
    for morphism in morphisms[:1] + morphisms[2:]:
        domain = morphism.domain
        lengths = ball(domain, 4).lengths
        multiplied = []
        monkeypatch.setattr(domain, "multiply", lambda a, b, multiply=domain.multiply:
                            multiplied.append((a, b)) or multiply(a, b))
        assert all(ok for ok, _ in morphism.check(radius=4).values())
        if morphism.member is None:
            e = domain.identity()
            listed = [(e, e)] + [(g, s) for g, l in lengths.items() if l < 4
                                 for s in domain.generators()]
        else:
            elems = [g for g in lengths if morphism.member(g)]
            listed = [(a, b) for a in elems for b in elems]
        assert sorted(multiplied) == sorted(listed), morphism.name
        assert len(multiplied) == (67 if morphism.member is None else 196)
        monkeypatch.undo()


def test_check_rejects_a_radius_below_1():
    morphism = shuffler_endomorphism(Z)
    for radius in (0, -1):
        for call in (lambda: morphism.check(radius=radius),
                     lambda: morphism.homomorphism_counterexample(radius=radius),
                     lambda: morphism.injective_on_ball(radius=radius)):
            with pytest.raises(ContractViolation,
                               match=f"radius must be >= 1, not {radius}"):
                call()
