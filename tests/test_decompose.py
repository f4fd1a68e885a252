import itertools
import random

import pytest

from conftest import search_payloads
from halolab.decompose import (_edge_table, _lamp_bfs, certify_commutator_form,
                               certified_form, commutator_transvection,
                               decompose_gluing, decompose_upcloner,
                               evaluate_word, invert_word)
from halolab.errors import (BudgetError, ContractViolation, UndecomposableError,
                            UnsupportedFamilyError)
from halolab.gf import GF
from halolab.groups import CyclicGroup, HeisenbergGroup, SymmetricGroup, ZdGroup
from halolab.halo import enumerate_block, make_halo

Z = ZdGroup(1, False)
ZLEX = ZdGroup(1, True)
Z2LEX = ZdGroup(2, True)


def _roundtrip(halo, lamp, decomposer):
    word = decomposer(halo, lamp)
    assert evaluate_word(halo, word) == (lamp, halo.base.identity())
    return word


def test_commutator_form_is_certified_once():
    assert certify_commutator_form() in ("lambda", "lambda_mu")
    assert certified_form() == certify_commutator_form()


def test_commutator_identity_over_all_fields():
    rng = random.Random(11)
    form = certified_form()
    for q in GF.SUPPORTED:
        gf = GF(q)
        for _ in range(30):
            r, f, s = (0,), (1,), (2,)
            lam = rng.choice(list(gf.units))
            mu = rng.choice(list(gf.units))
            got = commutator_transvection(gf, r, f, s, lam, mu)
            value = gf.mul(lam, mu) if form == "lambda_mu" else lam
            assert got == (((r, s), value),)


def test_shuffler_adjacent_transposition_is_a_generator():
    sh = make_halo("shuffler", None, Z)
    tau01 = tuple(sorted({(0,): (1,), (1,): (0,)}.items()))
    word = _roundtrip(sh, tau01, decompose_gluing)
    assert len(word) == 1


def test_shuffler_distance_two_transposition_word_length():
    sh = make_halo("shuffler", None, Z)
    tau02 = tuple(sorted({(0,): (2,), (2,): (0,)}.items()))
    word = _roundtrip(sh, tau02, decompose_gluing)
    assert len(word) == 5


def test_wreath_two_far_flips_word_length():
    wr = make_halo("wreath", CyclicGroup(2), Z)
    lamp = (((0,), 1), ((3,), 1))
    word = _roundtrip(wr, lamp, decompose_gluing)
    assert len(word) == 8


def test_random_wreath_and_shuffler_roundtrips():
    rng = random.Random(17)
    for family, params in (("wreath", CyclicGroup(2)), ("shuffler", None)):
        halo = make_halo(family, params, Z)
        for _ in range(60):
            sites = sorted(rng.sample(range(-3, 4), rng.randint(1, 3)))
            block = enumerate_block(halo, [(s,) for s in sites])
            lamp = rng.choice(sorted(block, key=repr))
            _roundtrip(halo, lamp, decompose_gluing)


def test_random_designer_juggler_cloner_roundtrips():
    rng = random.Random(23)
    for family, params in (("designer", CyclicGroup(2)), ("juggler", 2),
                           ("cloner", GF(3))):
        halo = make_halo(family, params, Z)
        for _ in range(20):
            sites = sorted(rng.sample(range(-2, 3), rng.randint(1, 2)))
            block = enumerate_block(halo, [(s,) for s in sites])
            lamp = rng.choice(sorted(block, key=repr))
            _roundtrip(halo, lamp, decompose_gluing)


def test_gluing_trace_measure_strictly_decreases():
    sh = make_halo("shuffler", None, Z)
    lamp = tuple(sorted({(-2,): (0,), (0,): (3,), (3,): (-2,)}.items()))
    trace = []
    word = decompose_gluing(sh, lamp, trace=trace)
    assert evaluate_word(sh, word) == (lamp, sh.base.identity())
    assert trace
    for parent, child in trace:
        assert child < parent


def test_upcloner_trace_records_transvection_measure():
    """A non-adjacent transvection recurses on its displacement length,
    recording each step as ((parent length,), (child length,))."""
    up = make_halo("upcloner", GF(2), Z2LEX)
    lamp = up.make_lamp({((0, 0), (0, 2)): 1})
    trace = []
    word = decompose_upcloner(up, lamp, trace=trace)
    assert evaluate_word(up, word) == (lamp, up.base.identity())
    assert ((2,), (1,)) in trace
    for parent, child in trace:
        assert child < parent


def test_gluing_decomposes_sites_more_than_64_apart():
    wreath = make_halo("wreath", CyclicGroup(2), Z)
    lamp = wreath.make_lamp({(0,): 1, (70,): 1})
    assert len(_roundtrip(wreath, lamp, decompose_gluing)) == 142


def test_long_transvection_meets_the_word_cap_not_a_radius():
    up = make_halo("upcloner", GF(2), Z2LEX)
    lamp = up.make_lamp({((0, 0), (0, 66)): 1})
    with pytest.raises(BudgetError, match="word length cap exceeded"):
        decompose_upcloner(up, lamp)


def test_upcloner_word_growth_is_pinned():
    """tau_{(0,0),(0,k)} over upcloner(GF2, Z^2) grows about 2.3x per unit
    of k, as the recursion splits a displacement v as e_i + (v - e_i); a
    split nearer the midpoint would change these counts."""
    up = make_halo("upcloner", GF(2), ZdGroup(2))
    lengths = [len(_roundtrip(up, up.make_lamp({((0, 0), (0, k)): 1}), decompose_upcloner))
               for k in range(1, 6)]
    assert lengths == [1, 8, 34, 110, 310]


def test_gluing_rejects_upcloner():
    up = make_halo("upcloner", GF(2), ZLEX)
    lamp = up.make_lamp({((0,), (1,)): 1})
    with pytest.raises(UnsupportedFamilyError):
        decompose_gluing(up, lamp)


def test_upcloner_roundtrips_on_natural_displacements():
    rng = random.Random(31)
    up = make_halo("upcloner", GF(2), Z2LEX)
    site_sets = [
        [(0, 0), (0, 1)],
        [(0, 0), (1, 0)],
        [(0, 0), (0, 2)],
        [(0, 0), (2, 1)],
        [(0, 0), (0, 1), (0, 2)],
        [(0, 0), (1, 0), (2, 1)],
        [(-1, -1), (0, 0), (1, 2)],
    ]
    for sites in site_sets:
        block = enumerate_block(up, sites)
        for _ in range(6):
            lamp = rng.choice(sorted(block, key=repr))
            _roundtrip(up, lamp, decompose_upcloner)


def test_upcloner_decomposes_over_z2_not_named_lex():
    """Tuple < is the lexicographic order on every Z^d, so decompose_upcloner
    takes Z^2 as it takes Z^2:lex, word for word; a base that is no Z^d
    stays unsupported."""
    up = make_halo("upcloner", GF(2), ZdGroup(2))
    up_lex = make_halo("upcloner", GF(2), Z2LEX)
    site_sets = [
        [(0, 0), (0, 1)],
        [(0, 0), (2, 1)],
        [(0, 0), (1, 0), (2, 1)],
        [(-1, -1), (0, 0), (1, 2)],
    ]
    for sites in site_sets:
        for lamp in enumerate_block(up, sites):
            assert _roundtrip(up, lamp, decompose_upcloner) == decompose_upcloner(up_lex, lamp)
    over_h3 = make_halo("upcloner", GF(2), HeisenbergGroup())
    with pytest.raises(UnsupportedFamilyError, match="Z\\^d bases"):
        decompose_upcloner(over_h3, over_h3.make_lamp({((0, 0, 0), (0, 1, 0)): 1}))


@pytest.mark.parametrize("family, payload", [
    ("upcloner", ((((0,), (1,)), 0),)),                      # a stored identity entry
    ("upcloner", ((((0,), (1,)), 5),)),                      # 5 is not in GF(2)
    ("upcloner", ((((1,), (2,)), 1), (((0,), (1,)), 1))),   # entries out of order
    ("cloner", ((((0,), (0,)), 0),)),                        # a singular matrix
], ids=["zero-entry", "outside-gf2", "unsorted", "singular"])
def test_decompositions_reject_a_payload_that_is_no_lamp(family, payload):
    """Neither decomposer searches for a payload that is no canonical lamp:
    each raises ContractViolation before any search, where a zero entry
    used to give the empty word, 5 an AssertionError and the other two
    UndecomposableError."""
    halo = make_halo(family, GF(2), Z)
    decompose = decompose_upcloner if family == "upcloner" else decompose_gluing
    with pytest.raises(ContractViolation, match="is not a lamp of"):
        decompose(halo, payload)


@pytest.mark.parametrize("family, q, base, sites", [
    ("juggler", None, Z, [(0,), (1,), (2,)]),
    ("cloner", 3, Z, [(0,), (1,)]),
    ("upcloner", 2, Z2LEX, [(0, 0), (1, 0), (2, 1)]),
    ("upcloner", 3, ZLEX, [(-1,), (0,), (2,)]),
], ids=["juggler-gluing", "cloner-gluing", "upcloner-z2", "upcloner-gf3"])
def test_word_cap_is_the_word_length(family, q, base, sites):
    """word_cap bounds the length of the returned word: a cap equal to it
    returns the same word, one below it raises BudgetError naming the cap."""
    halo = make_halo(family, 2 if family == "juggler" else q, base)
    decompose = decompose_upcloner if family == "upcloner" else decompose_gluing
    lamp = max(enumerate_block(halo, sites), key=lambda l: (len(repr(l)), repr(l)))
    word = decompose(halo, lamp)
    assert len(word) >= 2
    assert decompose(halo, lamp, word_cap=len(word)) == word
    with pytest.raises(BudgetError, match=rf"word length cap exceeded \(\d+ > {len(word) - 1}\)"):
        decompose(halo, lamp, word_cap=len(word) - 1)


def test_upcloner_roundtrip_on_z1():
    rng = random.Random(37)
    up = make_halo("upcloner", GF(3), ZLEX)
    for sites in ([(0,), (1,)], [(0,), (2,)], [(-1,), (0,), (2,)]):
        block = enumerate_block(up, sites)
        for _ in range(5):
            lamp = rng.choice(sorted(block, key=repr))
            _roundtrip(up, lamp, decompose_upcloner)


def test_upcloner_negative_displacement_is_undecomposable():
    up = make_halo("upcloner", GF(2), Z2LEX)
    lamp = up.make_lamp({((0, 0), (1, -3)): 1})
    with pytest.raises(UndecomposableError):
        decompose_upcloner(up, lamp)


def test_upcloner_obstruction_is_structural():
    """The generated subgroup sits inside the monoid-supported matrices:
    every product of conjugated generators only ever has off-diagonal
    entries at displacements in N^d.  A displacement with a negative
    coordinate therefore has no word, independent of search depth."""
    up = make_halo("upcloner", GF(2), Z2LEX)
    base = up.base

    def displacements_natural(lamp):
        return all(all(c >= 0 for c in tuple(q - p for p, q in zip(*pair)))
                   for pair, _ in lamp)

    # all generators satisfy the property
    lamps = [lamp for lamp, h in up.generators() if lamp]
    for t in [(0, 0), (1, 2), (2, 0), (3, 1)]:
        for lamp in lamps:
            moved = up.lamp_act(t, lamp)
            assert displacements_natural(moved)
    # and it is closed under composition and inverse on samples
    import itertools
    pool = [up.lamp_act(t, lamp) for t in [(0, 0), (1, 0), (0, 1)] for lamp in lamps]
    for a, b in itertools.product(pool, repeat=2):
        assert displacements_natural(up.lamp_compose(a, b))
        assert displacements_natural(up.lamp_invert(a))
    # while the target violates it
    bad = up.make_lamp({((0, 0), (1, -1)): 1})
    assert not displacements_natural(bad)


def test_evaluate_word_rejects_out_of_range_indices():
    sh = make_halo("shuffler", None, Z)
    n = len(sh.generators())
    assert evaluate_word(sh, [(n - 1, 1), (n - 1, -1)]) == sh.identity()
    for idx in (-1, n):
        for exp in (1, -1):
            with pytest.raises(ContractViolation, match="out of range"):
                evaluate_word(sh, [(idx, exp)])


def test_evaluate_word_rejects_malformed_letters_and_exponents():
    sh = make_halo("shuffler", None, Z)
    base_letter = (sh.base_gen_offset, 1)
    for letter in (("a", 1), (0, 1, 2)):
        with pytest.raises(ContractViolation, match="malformed word letter"):
            evaluate_word(sh, [base_letter, letter])
    with pytest.raises(ContractViolation, match=r"word exponents must be \+-1"):
        evaluate_word(sh, [base_letter] * 3 + [(0, 2)])


# ---------------------------------------------------------------------------
# evaluate_word steps every letter; this copy multiplies and inverts instead

def _multiply_evaluate(halo, word):
    gens = halo.generators()
    out = halo.identity()
    for idx, exp in word:
        out = halo.multiply(out, gens[idx] if exp == 1 else halo.invert(gens[idx]))
    return out


@pytest.mark.parametrize("family, params, base", [
    ("wreath", CyclicGroup(3), Z), ("shuffler", None, ZdGroup(2)), ("juggler", 2, Z),
    ("designer", CyclicGroup(3), Z), ("cloner", GF(3), Z), ("upcloner", GF(3), Z2LEX),
    ("shuffler", None, make_halo("wreath", CyclicGroup(3), Z))],
    ids=["wreath", "shuffler", "juggler", "designer", "cloner", "upcloner", "nested"])
def test_evaluate_word_equals_a_multiply_invert_evaluator(family, params, base):
    halo = make_halo(family, params, base)
    n = len(halo.generators())
    rng = random.Random(halo.spec)
    for length in list(range(6)) + [20] * 30:
        word = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)]
        assert evaluate_word(halo, word) == _multiply_evaluate(halo, word), word
    for i in range(n):  # every generator's inverse letter
        assert evaluate_word(halo, [(i, -1)]) == halo.invert(halo.generators()[i])


# ---------------------------------------------------------------------------
# one lamp BFS behind edge tables and factorizations; these are the two
# searches it replaced

def _old_factor_search(halo, target, generator_lamps):
    ident = halo.lamp_identity()
    if target == ident:
        return []
    prev = {ident: None}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for state in frontier:
            for g in generator_lamps:
                nxt = halo.lamp_compose(state, g)
                if nxt in prev:
                    continue
                prev[nxt] = (state, g)
                if nxt == target:
                    factors = []
                    cur = nxt
                    while prev[cur] is not None:
                        cur, g = prev[cur]
                        factors.append(g)
                    factors.reverse()
                    return factors
                new_frontier.append(nxt)
        frontier = new_frontier
    raise UndecomposableError("target lamp is not in the generated subgroup")


def _old_edge_table(halo, p, q):
    base = halo.base
    sites = {p, q}
    gens = halo.generators()
    candidates = []
    seen = set()
    for gi, (lg, _cursor) in enumerate(gens[: halo.base_gen_offset]):
        ts = set()
        for u in halo.lamp_sites(lg):
            for site in (p, q):
                ts.add(base.multiply(site, base.invert(u)))
        for t in sorted(ts):
            moved = halo.lamp_act(t, lg)
            if not halo.lamp_sites(moved) <= sites or (moved, gi) in seen:
                continue
            seen.add((moved, gi))
            path = halo.base_word(t)
            candidates.append((moved, path + [(gi, 1)] + invert_word(path)))
    candidates.sort(key=lambda cw: len(cw[1]))
    table = {halo.lamp_identity(): []}
    frontier = [halo.lamp_identity()]
    while frontier:
        new_frontier = []
        for state in frontier:
            for moved, w in candidates:
                nxt = halo.lamp_compose(state, moved)
                if nxt not in table:
                    table[nxt] = table[state] + w
                    new_frontier.append(nxt)
        frontier = new_frontier
    return table


def test_edge_table_keeps_the_shorter_of_two_equal_translates():
    # Over wreath(C2, Z) two translates t of the swap generator give the
    # same swap of p and q, with words path(t) g path(t)^-1 of 5 and 7
    # letters; the table reads the 5-letter one.
    wr = make_halo("wreath", CyclicGroup(2), Z)
    sh = make_halo("shuffler", None, wr)
    p = ((((0,), 1),), (-1,))
    q = wr.multiply(p, ((((0,), 1),), (0,)))
    encode, table = _edge_table(sh, p, q)
    swap = sh.make_lamp({p: q, q: p})
    word = table[encode(swap)]
    assert len(word) == 5
    assert evaluate_word(sh, word) == (swap, wr.identity())


GLUING_HALOS = [("wreath", CyclicGroup(2)), ("shuffler", None), ("juggler", 2),
                ("designer", CyclicGroup(2)), ("cloner", GF(2))]


@pytest.mark.parametrize("family, params", GLUING_HALOS, ids=[f for f, _ in GLUING_HALOS])
def test_lamp_bfs_equals_the_searches_it_replaced(family, params):
    """On every 1-3-subset R of {-2..2}: the edge tables the recursion
    reads for R's sites (with their order), and the factor lists of
    full-support elements of L(R) over the blocks the recursion splits R
    into (three seeded picks per set)."""
    halo = make_halo(family, params, Z)
    ident = halo.lamp_identity()
    rng = random.Random(family)
    for p in range(-2, 3):
        encode, new = _edge_table(halo, (p,), (p + 1,))
        old = _old_edge_table(halo, (p,), (p + 1,))
        assert list(new.items()) == [(encode(l), w) for l, w in old.items()]
    for k in (2, 3):
        for R in itertools.combinations([(s,) for s in range(-2, 3)], k):
            if k == 2:
                (a,), (b,) = R
                if b - a == 1:
                    continue  # an edge block, solved by the table above
                c = ((a + b) // 2,)
                r1, r2 = [R[0], c], [c, R[1]]
            else:
                r1, r2 = R[:2], R[1:]
            blocks = [l for l in enumerate_block(halo, r1) if l != ident]
            blocks += [l for l in enumerate_block(halo, r2) if l != ident]
            full = [l for l in enumerate_block(halo, R) if halo.lamp_sites(l) == set(R)]
            for target in rng.sample(full, min(3, len(full))):
                encode, paths = _lamp_bfs(halo, [(l, [l]) for l in blocks], target)
                assert list(paths)[-1] == encode(target)  # the search stops there
                assert paths[encode(target)] == _old_factor_search(halo, target, blocks)


# ---------------------------------------------------------------------------
# coded lamps: shuffler and juggler searches step bytes by bytes.translate,
# GF(2) cloner and upcloner searches step ints by column shifts; the payloads
# and lamp_compose of a search with no code (search_payloads) stay the oracle

def _search_sites(halo):
    """Sites e, s and a neighbour of s for a base generator s (e, s when a
    3-site block would exceed 1,000 lamps), split as the recursion splits
    them."""
    base = halo.base
    e, s = base.identity(), base.generators()[0]
    sites = [e, s, next(x for x in (base.multiply(s, t) for t in base.generators())
                        if x not in (e, s))]
    if halo.growth(3) > 1000:
        sites = sites[:2]
    return sites, sites[:-1], sites[1:]


CODED_HALOS = [("shuffler", None, Z), ("juggler", 2, Z), ("juggler", 3, Z),
               ("shuffler", None, ZdGroup(2)), ("juggler", 2, ZdGroup(2)),
               ("shuffler", None, HeisenbergGroup()),
               ("cloner", GF(2), Z), ("cloner", GF(2), ZdGroup(2)),
               ("cloner", GF(2), HeisenbergGroup()),
               ("upcloner", GF(2), Z), ("upcloner", GF(2), ZdGroup(2))]
# wreath and designer lamps code as permutations of the points site x fiber;
# Sym(3) is a non-abelian fiber
FIBERS = [CyclicGroup(2), CyclicGroup(3), SymmetricGroup(3)]
FIBER_CODED = [(family, fiber) for family in ("wreath", "designer") for fiber in FIBERS]


@pytest.mark.parametrize("family, params, base",
                         CODED_HALOS + [(f, fiber, Z) for f, fiber in FIBER_CODED],
                         ids=[f"{f}-{getattr(p, 'spec', p)}-{b.spec}" for f, p, b in CODED_HALOS]
                         + [f"{f}-{fiber.spec}-Z" for f, fiber in FIBER_CODED])
def test_lamp_codes_step_as_lamp_compose(family, params, base):
    """The moves are whole 2-site blocks.  encode is injective on the block
    the moves generate, decoding step(encode(a), operand) gives
    lamp_compose(a, move), for 40 random lamps a of that block against
    every move, and encode raises KeyError for a lamp on other sites."""
    halo = make_halo(family, params, base)
    sites, r1, r2 = _search_sites(halo)
    ident = halo.lamp_identity()
    moves = [l for l in enumerate_block(halo, r1) if l != ident]
    moves += [l for l in enumerate_block(halo, r2) if l != ident]
    encode, operands, step = halo._lamp_codes(moves)
    block = enumerate_block(halo, sites)
    decode = {encode(l): l for l in block}
    assert len(decode) == len(block)
    rng = random.Random(halo.spec)
    for a in rng.sample(block, min(40, len(block))):
        code = encode(a)
        for m, op in zip(moves, operands):
            assert decode[step(code, op)] == halo.lamp_compose(a, m)
    far = halo.base.identity()
    for _ in range(5):
        far = halo.base.multiply(far, halo.base.generators()[0])
    with pytest.raises(KeyError):
        encode(halo.lamp_act(far, moves[-1]))


def test_cloner_over_gf3_searches_payloads():
    """Only GF(2) matrices are coded: over GF(3) the hook returns None and
    the search keys its paths by the payloads themselves."""
    halo = make_halo("cloner", GF(3), Z)
    moves = [l for l in enumerate_block(halo, [(0,), (1,)]) if l][:5]
    assert halo._lamp_codes(moves) is None
    encode, paths = _lamp_bfs(halo, [(m, [m]) for m in moves])
    assert all(encode(m) is m and paths[m] == [m] for m in moves)


def test_lamp_codes_hold_at_most_256_points():
    """Adjacent transpositions of Z over 256 points code and step; over 257
    points the hook returns None, and the search reaches a one-swap target
    through payloads, on the paths of a search forced onto payloads."""
    halo = make_halo("shuffler", None, Z)

    def swaps(points):
        return [halo.make_lamp({(i,): (i + 1,), (i + 1,): (i,)}) for i in range(points - 1)]

    moves = swaps(256)
    encode, operands, step = halo._lamp_codes(moves)
    a = halo.make_lamp({(i,): ((i + 1) % 256,) for i in range(256)})  # a 256-cycle
    for m, op in zip(moves, operands):
        assert step(encode(a), op) == encode(halo.lamp_compose(a, m))
    moves = swaps(257)
    assert halo._lamp_codes(moves) is None
    target = moves[128]
    encode, paths = _lamp_bfs(halo, [(m, [m]) for m in moves], target)
    forced = search_payloads(make_halo("shuffler", None, Z))
    assert paths == _lamp_bfs(forced, [(m, [m]) for m in moves], target)[1]
    assert list(paths)[-1] == encode(target) and paths[encode(target)] == [target]


@pytest.mark.parametrize("coded", [True, False], ids=["codes", "payloads"])
def test_lamp_bfs_target_outside_the_moves_is_undecomposable(coded):
    """A target that moves a point no move touches, and one inside the
    moves' points but outside the subgroup they generate, raise the same
    UndecomposableError through codes as through payloads."""
    halo = make_halo("shuffler", None, Z)
    if not coded:
        search_payloads(halo)
    assert (halo._lamp_codes([]) is not None) == coded

    def swap(i, j):
        return halo.make_lamp({(i,): (j,), (j,): (i,)})

    moves = [(swap(0, 1), ["a"]), (swap(2, 3), ["b"])]
    for target in (swap(1, 4), swap(1, 2)):
        with pytest.raises(UndecomposableError, match="not in the subgroup"):
            _lamp_bfs(halo, moves, target)
    encode, paths = _lamp_bfs(halo, moves, halo.lamp_compose(swap(0, 1), swap(2, 3)))
    assert list(paths.values())[-1] == ["a", "b"]


def _coded_and_payload_words(family, params, base, site_sets, picks):
    """decompose_gluing (decompose_upcloner for upcloner) through codes and
    through payloads, on every full-support element of each site set, or on
    `picks` seeded ones where there are more."""
    fast = make_halo(family, params, base)
    assert fast._lamp_codes(enumerate_block(fast, site_sets[0])) is not None
    slow = search_payloads(make_halo(family, params, base))
    decompose = decompose_upcloner if family == "upcloner" else decompose_gluing
    rng = random.Random(fast.spec)
    checked = 0
    for R in site_sets:
        full = [l for l in enumerate_block(fast, R) if fast.lamp_sites(l) == set(R)]
        for lamp in (full if len(full) <= picks else rng.sample(full, picks)):
            assert decompose(fast, lamp) == decompose(slow, lamp), (R, lamp)
            checked += 1
    return checked


GLUING_CODED = [("shuffler", None), ("juggler", 2), ("cloner", GF(2))]
# (family, params, reach, words checked) over the 1-3-subsets of
# {-reach..reach}.  A k-site set has (|F| - 1)^k full-support wreath
# elements and at least as many designer ones; designer(Sym3) payload
# searches over three sites take about 0.25 s each, so its window is {-1..1}
GLUING_OVER_Z = ([(f, p, 2, {"shuffler": 30, "juggler": 5 + 20 * 3, "cloner": 20 * 3}[f])
                  for f, p in GLUING_CODED]
                 + [("wreath", FIBERS[0], 2, 5 + 10 + 10), ("wreath", FIBERS[1], 2, 5 * 2 + 60),
                    ("wreath", FIBERS[2], 2, 5 * 3 + 60), ("designer", FIBERS[0], 2, 5 + 60),
                    ("designer", FIBERS[1], 2, 5 * 2 + 60), ("designer", FIBERS[2], 1, 7 * 3)])


@pytest.mark.parametrize("family, params, reach, words", GLUING_OVER_Z,
                         ids=[f"{f}-{getattr(p, 'spec', p)}" for f, p, _, _ in GLUING_OVER_Z])
def test_coded_factor_searches_give_the_payload_words_over_z(family, params, reach, words):
    """Every 1-3-subset of {-reach..reach}: all full-support shuffler
    elements and all juggler(2) elements on a single site; three seeded
    juggler(2) and cloner(GF2) elements per larger set (GL(1, 2) is
    trivial), as juggler(2) payload searches take about 30 ms each.
    Wreath and designer, whose lamps code as permutations of the points
    site x fiber, over C2, C3 and the non-abelian Sym(3): all full-support
    elements, or three seeded ones where there are more."""
    sets = [R for k in (1, 2, 3)
            for R in itertools.combinations([(s,) for s in range(-reach, reach + 1)], k)]
    assert _coded_and_payload_words(family, params, Z, sets, picks=3) == words


@pytest.mark.parametrize("family, params", GLUING_CODED,
                         ids=[f"{f}-{p}" for f, p in GLUING_CODED])
def test_coded_factor_searches_give_the_payload_words_over_z2(family, params):
    """Every 3-site set in the radius-1 window of Z^2, as over Z."""
    window = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    sets = [sorted(R) for R in itertools.combinations(window, 3)]
    checked = _coded_and_payload_words(family, params, ZdGroup(2), sets, picks=3)
    assert checked == (20 if family == "shuffler" else 10 * 3)


@pytest.mark.parametrize("base", [ZLEX, ZdGroup(2)], ids=["Z:lex", "Z^2"])
def test_coded_upcloner_searches_give_the_payload_words(base):
    """Every 2- and 3-site chain in the window {0..2}^d whose consecutive
    displacements lie in N^d (where upcloner elements decompose): all
    full-support upcloner(GF2) elements of each, one per pair and four per
    triple."""
    window = sorted(itertools.product(range(3), repeat=base.d))
    chains = [list(c) for k in (2, 3) for c in itertools.combinations(window, k)
              if all(all(x <= y for x, y in zip(a, b)) for a, b in zip(c, c[1:]))]
    checked = _coded_and_payload_words("upcloner", GF(2), base, chains, picks=8)
    assert checked == (3 + 4 * 1 if base.d == 1 else 27 + 4 * 37)


# ---------------------------------------------------------------------------
# transvection words and factor blocks are kept per halo; the oracle is a
# fresh halo per element whose transvection memo keeps nothing

class _KeepsNothing(dict):
    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("q", [2, 3], ids=["GF2", "GF3"])
def test_kept_transvection_words_equal_words_built_afresh(q):
    """One seeded full-support element per 2- and 3-chain of the 4x4 window
    in upcloner(GFq, Z^2:lex): a halo that has decomposed the other chains,
    first without a trace and then with one, gives the word and trace of a
    fresh halo that builds every transvection word anew, and raises
    BudgetError exactly below the word's length.  Over GF(3), -lam != lam,
    so a memo that dropped lam from its key would give wrong words."""
    window = [(i, j) for i in range(4) for j in range(4)]
    chains = [list(c) for k in (2, 3) for c in itertools.combinations(window, k)
              if all(all(x <= y for x, y in zip(a, b)) for a, b in zip(c, c[1:]))]
    warm = make_halo("upcloner", GF(q), Z2LEX)
    rng = random.Random(q)
    lamps = [rng.choice(sorted(l for l in enumerate_block(warm, chain)
                               if warm.lamp_sites(l) == set(chain)))
             for chain in chains]
    fresh = []
    for lamp in lamps:
        halo = make_halo("upcloner", GF(q), Z2LEX)
        halo._transvection_words = _KeepsNothing()
        trace = []
        fresh.append((decompose_upcloner(halo, lamp, trace=trace), trace))
    for lamp, (word, _) in zip(lamps, fresh):
        assert decompose_upcloner(warm, lamp) == word
    for lamp, (word, trace) in zip(lamps, fresh):
        got = []
        assert decompose_upcloner(warm, lamp, trace=got) == word
        assert got == trace
        assert decompose_upcloner(warm, lamp, word_cap=len(word)) == word
        with pytest.raises(BudgetError):
            decompose_upcloner(warm, lamp, word_cap=len(word) - 1)
    assert len(chains) == 84 + 216


def test_halos_keep_their_own_words():
    """Each halo keeps its own transvection words and factor blocks, and a
    returned word is the caller's to change."""
    first, second = (make_halo("upcloner", GF(2), Z2LEX) for _ in range(2))
    lamp = first.make_lamp({((0, 0), (1, 1)): 1, ((1, 1), (2, 3)): 1})
    word = decompose_upcloner(first, lamp)
    assert first._transvection_words and first._factor_blocks
    assert not hasattr(second, "_transvection_words")
    assert not hasattr(second, "_factor_blocks")
    assert decompose_upcloner(second, lamp) == word
    assert first._transvection_words is not second._transvection_words
    word.clear()
    assert decompose_upcloner(first, lamp) == decompose_upcloner(second, lamp) != []
    wreath = make_halo("wreath", CyclicGroup(2), Z)
    single = wreath.make_lamp({(0,): 1})
    decompose_gluing(wreath, single).append((0, 1))
    assert decompose_gluing(wreath, single) == [(0, 1)]
