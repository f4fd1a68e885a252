import pytest

from halolab import embeddings, groups
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

    class SpyBall(groups.Ball):
        def __init__(self, group):
            built.append(group)
            super().__init__(group)

    def spy_ball(group, *args, **kwargs):
        built.append(group)
        return groups.ball(group, *args, **kwargs)

    monkeypatch.setattr(embeddings, "Ball", SpyBall)
    monkeypatch.setattr(embeddings, "ball", spy_ball)
    assert morphism.check(pairs=200, radius=3)["injective_on_ball"] == (True, None)
    assert built == [morphism.domain]
    # a smaller radius reads the same ball, cut to that radius
    assert morphism.check(pairs=200, radius=2) == expected
    assert built == [morphism.domain]


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
