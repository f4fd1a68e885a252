"""Acceptance suite: one test per criterion, each recording a single
PASS/FAIL line printed in the terminal summary (see conftest).

Three criteria contain sub-claims that are infeasible or false at the
stated tolerances; those tests verify everything feasible, record an
honest FAIL line, and are marked xfail with the reason.  The analysis
lives in the decisions ledger outside this repository's package code.
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import record_criterion
from halolab.bounds import phi_inverse
from halolab.decompose import (certified_form, certify_commutator_form,
                               commutator_transvection, decompose_gluing,
                               decompose_upcloner, evaluate_word)
from halolab.embeddings import (coset_system_mZ, lamplighter_in_halo,
                                shuffler_endomorphism, wreath_in_shuffler)
from halolab.errors import BudgetError
from halolab.gf import GF
from halolab.groups import CyclicGroup, ZdGroup, ball
from halolab.halo import commutativity_constant, enumerate_block, make_halo
from halolab.isoperimetry import (FiniteFunction, almost_invariant_lift,
                                  boundary, folner_function, gradient_ratio,
                                  power_transform_bound, product_boundary,
                                  profile_exact)
from halolab.lampgraph import (_net_metric_pairs, build_Ystar,
                               check_iso_to_lamplighter, complete_graph,
                               greedy_net, lamplighter_graph,
                               net_is_maximal_in_interior,
                               net_is_separated, net_metric_check)

Z = ZdGroup(1, False)
ZLEX = ZdGroup(1, True)
Z2 = ZdGroup(2, False)
Z2LEX = ZdGroup(2, True)


def _families_over_z():
    return [
        ("wreath(C2)", make_halo("wreath", CyclicGroup(2), Z)),
        ("shuffler", make_halo("shuffler", None, Z)),
        ("juggler(2)", make_halo("juggler", 2, Z)),
        ("designer(C2)", make_halo("designer", CyclicGroup(2), Z)),
        ("cloner(GF2)", make_halo("cloner", GF(2), Z)),
        ("upcloner(GF2)", make_halo("upcloner", GF(2), ZLEX)),
    ]


def test_criterion_01_lift_ratio_equality():
    """Exact lift-ratio equality for all family/function/exponent combos
    whose block enumeration fits the 10^6 budget; two combos do not."""
    supports = {"delta_0": [0], "indicator_01": [0, 1], "indicator_02": [0, 1, 2]}
    skipped = []
    checked = 0
    for fname, halo in _families_over_z():
        for sname, supp in supports.items():
            U = [(i,) for i in supp]
            V = {halo.base.multiply(u, s) for u in U
                 for s in halo.base.generators()} | set(U)
            lam = halo.growth(len(V))
            if lam > 10 ** 6:
                skipped.append(f"{fname}/{sname} (Lambda({len(V)}) = {lam:,})")
                continue
            for p in (1, 2, 3):
                one = Fraction(1) if p == 1 else 1.0
                f = FiniteFunction({u: one for u in U}, p)
                g = almost_invariant_lift(halo, f)
                assert len(g.entries) == len(U) * lam, (fname, sname)
                rf = gradient_ratio(halo.base, f)
                rg = gradient_ratio(halo, g)
                if p == 1:
                    assert rf == rg, (fname, sname, p)
                else:
                    assert abs(rf - rg) <= 1e-10 * abs(rf), (fname, sname, p)
                checked += 1
    if skipped:
        record_criterion(1, False,
                         f"lift ratio equality exact for {checked} feasible "
                         f"combos; infeasible within the 10^6 block budget: "
                         + "; ".join(skipped) + " (see decisions ledger)")
        pytest.xfail("two family/function combos exceed the spec's own "
                     "block-enumeration budget: " + "; ".join(skipped))
    record_criterion(1, True, f"lift ratio equality exact on all {checked} combos")


def test_criterion_02_lamp_growth_oracle():
    expected = {
        ("shuffler", None): [1, 2, 6, 24],
        ("wreath", CyclicGroup(2)): [2, 4, 8, 16],
        ("designer", CyclicGroup(2)): [2, 8, 48],
        ("juggler", 2): [2, 24, 720],
        ("cloner", GF(2)): [1, 6, 168],
        ("upcloner", GF(2)): [1, 2, 8, 64],
    }
    for (family, params), values in expected.items():
        base = ZLEX if family == "upcloner" else Z
        halo = make_halo(family, params, base)
        for n, count in enumerate(values, start=1):
            block = enumerate_block(halo, [(i,) for i in range(n)])
            assert len(block) == count, (family, n)
    record_criterion(2, True, "block cardinalities equal closed forms for all six families")


def test_criterion_03_decomposition_roundtrip():
    """Gluing round-trips hold in full; upcloner round-trips hold exactly on
    the decomposable range (all pairwise displacements in N^2), which random
    site sampling over [-3,3]^2 does not respect."""
    rng = random.Random(41)
    # 200 random shuffler/wreath block elements
    for family, params in (("shuffler", None), ("wreath", CyclicGroup(2))):
        halo = make_halo(family, params, Z)
        for _ in range(100):
            sites = sorted(rng.sample(range(-3, 4), rng.randint(1, 3)))
            block = enumerate_block(halo, [(s,) for s in sites])
            lamp = rng.choice(sorted(block, key=repr))
            trace = []
            word = decompose_gluing(halo, lamp, trace=trace)
            assert evaluate_word(halo, word) == (lamp, halo.base.identity())
            for parent, child in trace:
                assert child < parent
    # 200 random upcloner elements over decomposable site sets
    up = make_halo("upcloner", GF(2), Z2LEX)
    count, rejected = 0, 0
    coords = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    while count < 200:
        sites = sorted(rng.sample(coords, rng.randint(2, 3)))
        disps = [tuple(q - p for p, q in zip(a, b))
                 for a, b in itertools.combinations(sorted(sites), 2)]
        if any(c < 0 for d in disps for c in d):
            rejected += 1
            continue
        block = enumerate_block(up, sites)
        lamp = rng.choice(sorted(block, key=repr))
        trace = []
        word = decompose_upcloner(up, lamp, trace=trace)
        assert evaluate_word(up, word) == (lamp, up.base.identity())
        for parent, child in trace:
            assert child < parent
        count += 1
    record_criterion(3, False,
                     "200 shuffler/wreath and 200 N^2-displacement upcloner "
                     "round-trips exact with strictly decreasing recursion "
                     "measure; unrestricted sampling over [-3,3]^2 includes "
                     f"provably undecomposable elements ({rejected} rejected "
                     "draws; see decisions ledger)")
    pytest.xfail("upcloner decomposition is impossible for displacements "
                 "outside N^d: the generated subgroup is confined to "
                 "monoid-supported matrices (structural obstruction)")


def test_criterion_04_commutator_identity():
    form = certify_commutator_form()
    assert form == certified_form()
    rng = random.Random(43)
    for q in (2, 3):
        gf = GF(q)
        for _ in range(50):
            keys = sorted(rng.sample(range(-5, 6), 3))
            r, f, s = ((k,) for k in keys)
            lam = rng.choice(list(gf.units))
            mu = rng.choice(list(gf.units))
            got = commutator_transvection(gf, r, f, s, lam, mu)
            value = gf.mul(lam, mu) if form == "lambda_mu" else lam
            assert got == (((r, s), value),)
    # decompose_upcloner consumes the certified form: a distance-2
    # transvection round-trips exactly
    up = make_halo("upcloner", GF(3), ZLEX)
    lamp = up.make_lamp({((0,), (2,)): 2})
    word = decompose_upcloner(up, lamp)
    assert evaluate_word(up, word) == (lamp, up.base.identity())
    record_criterion(4, True,
                     f"matrix oracle certifies the '{form}' form over GF(2..5); "
                     "100 random triples match; decomposition consumes it")


def test_criterion_05_exact_profile_of_z():
    pts = profile_exact(Z, 10, 12)
    for pt in pts:
        assert pt.exact and pt.value == Fraction(pt.n, 2)
    # independent oracle: unordered subset enumeration, n <= 7
    window = sorted(ball(Z, 7).elements)
    for n in range(1, 8):
        best = max((boundary(Z, A).ratio
                    for A in itertools.combinations(window, n)), default=None)
        assert best == Fraction(n, 2)
    assert folner_function(pts, Fraction(1, 2)) == 4
    record_criterion(5, True, "j(n) = n/2 for n <= 10, oracle agreement to "
                              "n = 7, Folner(1/2) witnessed at |A| = 4")


def test_criterion_06_lamplighter_box_folner():
    wr = make_halo("wreath", CyclicGroup(2), Z)
    for n in range(7):
        sites = [(i,) for i in range(n + 1)]
        lamps = enumerate_block(wr, sites)
        A = {(lamp, (c,)) for lamp in lamps for c in range(n + 1)}
        assert len(A) == (n + 1) * 2 ** (n + 1)
        w = boundary(wr, A)
        assert len(w.boundary) == 2 * 2 ** (n + 1), n
        assert Fraction(len(w.boundary), len(A)) == Fraction(2, n + 1)
    record_criterion(6, True, "box sets: |A_n| = (n+1)2^(n+1), "
                              "|dA_n| = 2*2^(n+1), ratio 2/(n+1) for n <= 6")


def test_criterion_07_commutativity_constants():
    wr = make_halo("wreath", CyclicGroup(2), Z)
    D, witness = commutativity_constant(wr, 3, 10 ** 5)
    assert D == 0 and witness is None
    for name, halo in (("shuffler", make_halo("shuffler", None, Z)),
                       ("cloner", make_halo("cloner", GF(2), Z))):
        D, witness = commutativity_constant(halo, 3, 10 ** 5)
        assert D == 1, name
        a, b = witness
        assert halo.multiply(a, b) != halo.multiply(b, a), name
        # witness supports sit at distance D - 1 = 0 (they overlap)
        sa = halo.lamp_sites(a[0])
        sb = halo.lamp_sites(b[0])
        assert sa & sb, name
    record_criterion(7, True, "D = 0 (wreath), D = 1 (shuffler, cloner) with "
                              "valid non-commuting witnesses at distance D-1")


def test_criterion_08_ystar_isomorphism_and_metric():
    sh = make_halo("shuffler", None, Z)
    net = greedy_net(Z, 3, 1)
    Y = build_Ystar(sh, net, (1,), 3)
    ok, _ = check_iso_to_lamplighter(Y, complete_graph(2), complete_graph(3))
    assert ok
    # wreath(C2, Z) at radius 6: 5,120 vertices over a net graph that is not complete
    net6 = greedy_net(Z, 6, 1)
    A6 = net6.graph
    assert len(A6.edges) < len(A6.vertices) * (len(A6.vertices) - 1) // 2
    Y6 = build_Ystar(make_halo("wreath", CyclicGroup(2), Z), net6, (1,), 6)
    assert len(Y6.vertices) == 5120
    ok6, mapping6 = check_iso_to_lamplighter(Y6, complete_graph(4), A6)
    assert ok6
    L6 = lamplighter_graph(complete_graph(4), A6, len(A6.vertices)).graph
    assert mapping6.keys() == set(Y6.vertices) and set(mapping6.values()) == set(L6.vertices)
    assert {frozenset(mapping6[v] for v in e) for e in Y6.edges} == L6.edges
    assert check_iso_to_lamplighter(Y6, complete_graph(3), A6) == (False, None)
    assert net_is_separated(net) and net_is_maximal_in_interior(net)
    assert net_metric_check(net)
    # metric bounds exhaustively on larger windows too
    checked = skipped = 0
    for n in (net, greedy_net(Z, 6, 1), greedy_net(Z2, 6, 1)):
        c, s, failed = _net_metric_pairs(n)[1]
        assert c > 0 and failed == 0
        checked, skipped = checked + c, skipped + s
    record_criterion(8, True, "Y* isomorphic to the block-over-net lamplighter "
                              "graph (shuffler radius 3, wreath radius 6 with "
                              f"{len(Y6.vertices)} vertices); net metric bounds hold on {checked} "
                              f"interior pairs of 3 nets ({skipped} skipped)")


def test_criterion_09_power_transform_inequality():
    rng = random.Random(47)
    window = sorted(ball(Z2, 4).elements)
    violations = 0
    for _ in range(1000):
        supp = rng.sample(window, rng.randint(1, 6))
        f = FiniteFunction({g: float(rng.randint(1, 9)) for g in supp}, 2)
        for p, q in ((2, 1), (3, 1), (3, 2)):
            lhs, rhs = power_transform_bound(Z2, FiniteFunction(f.entries, p), p, q)
            if lhs > rhs * (1 + 1e-12):
                violations += 1
    assert violations == 0
    record_criterion(9, True, "power-transform inequality holds for 1000 "
                              "random functions at (p,q) in {(2,1),(3,1),(3,2)}")


def test_criterion_10_product_boundary():
    rng = random.Random(53)
    for _ in range(200):
        A = frozenset((rng.randint(-6, 6),) for _ in range(rng.randint(1, 6)))
        B = frozenset((rng.randint(-6, 6),) for _ in range(rng.randint(1, 6)))
        w = product_boundary(Z, Z, A, B)  # identity asserted internally
        rA = boundary(Z, A).ratio
        rB = boundary(Z, B).ratio
        assert 1 / w.ratio <= 1 / rA + 1 / rB
    record_criterion(10, True, "product boundary identity and harmonic-sum "
                               "inequality hold on 200 random pairs")


def test_criterion_11_embeddings():
    morphisms = [
        wreath_in_shuffler(Z, coset_system_mZ(2)),
        shuffler_endomorphism(Z),
        lamplighter_in_halo("juggler", 2, Z),
        lamplighter_in_halo("designer", CyclicGroup(2), Z),
        lamplighter_in_halo("cloner", 3, Z),
    ]
    for m in morphisms:
        results = m.check(pairs=1000, radius=4)
        for prop, (ok, extra) in results.items():
            assert ok, (m.name, prop, extra)
    assert morphisms[1].not_surjective_witness is not None
    record_criterion(11, True, "all five morphisms pass identity/homomorphism/"
                               "injectivity on Ball(4); non-surjectivity "
                               "witness found")


def test_criterion_12_asymptotic_fit_and_gluing_counterexample():
    # part 2: the upcloner gluing counterexample, 4 < 8, exact
    up = make_halo("upcloner", GF(2), Z2LEX)
    a, b, c = (0, 0), (0, 1), (1, 0)
    block = enumerate_block(up, [a, b, c])
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
    assert len(closure) == 4 and len(block) == 8
    # part 1: the Stirling-regime band
    ratios = {}
    for k in range(3, 10):
        x = 10.0 ** k
        t = phi_inverse("shuffler", None, x)
        ratios[k] = t * math.log(t) / math.log(x)
    in_band = {k: 0.8 <= r <= 1.2 for k, r in ratios.items()}
    if not all(in_band.values()):
        pretty = ", ".join(f"10^{k}: {r:.3f}" for k, r in ratios.items())
        record_criterion(12, False,
                         "gluing counterexample 4 < 8 reproduced exactly, but "
                         f"the band check fails: ratio outside [0.8, 1.2] at "
                         f"every grid point ({pretty}; see decisions ledger)")
        pytest.xfail("phi_inverse(x) ln(phi_inverse(x)) / ln(x) converges to 1 "
                     "far too slowly: it is 1.27-1.33 over 10^3..10^9")
    record_criterion(12, True, "band check and gluing counterexample both hold")


def test_criterion_13_determinism(tmp_path):
    from halolab.experiment import run_experiment
    cfg = {"group": "wreath(C2, Z)", "n_max": 5, "method": "anneal", "seed": 7}
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    pa = (tmp_path / "a" / "profile.csv").read_bytes()
    pb = (tmp_path / "b" / "profile.csv").read_bytes()
    assert pa == pb
    exact = {"group": "Z^2", "n_max": 6, "radius": 6, "method": "exact"}
    run_experiment(exact, str(tmp_path / "c"))
    run_experiment(exact, str(tmp_path / "d"))
    for name in ("profile.csv", "witnesses.json"):
        assert (tmp_path / "c" / name).read_bytes() == \
            (tmp_path / "d" / name).read_bytes()
    rows = (tmp_path / "c" / "profile.csv").read_text().splitlines()[1:]
    assert [r.split(",")[4] for r in rows] == ["true"] * 6
    record_criterion(13, True, "seeded anneal reruns and exact Z^2 search "
                               "reruns byte-identical")
