"""Constructive natural-generation decompositions.

Block elements decompose into conjugated natural generators by one
recursion on their sites, ``_decompose``, which splits a lamp on three or
more sites and hands what is left to its family's base case: the gluing
families (wreath, shuffler, juggler, designer, cloner) read singletons and
adjacent pairs from edge-block tables and factor a non-adjacent pair
through its geodesic midpoint; an upcloner over Z^d solves a pair by the
three-case transvection recursion built on the commutator identity.  Base
words are geodesics of any length: the word cap and the base ball's
memory budget are the only bounds.  Transvection words grow about 2.3x per
unit of displacement (the recursion splits a displacement v with
v[i] >= 2 as e_i + (v - e_i)): tau_{(0,0),(0,k)} over upcloner(GF2, Z^2)
has 1, 8, 34, 110, 310 letters for k = 1..5, and k = 12 exceeds the
default cap of 10^5 letters.

Each halo keeps what its decompositions share: the edge-block tables, the
factor blocks L(sites) and the transvection words.  A kept piece gives the
same word, trace and budget use as computing it again.

Words are lists of (generator index, exponent +-1) over the halo's
natural generating set, produced unreduced.

The commutator identity is never assumed: ``certify_commutator_form``
computes the four-transvection product by matrix multiplication and
returns whichever closed form actually holds; the upcloner recursion uses
the certified form.

Decomposability limit (upcloner): the conjugated natural generators are
the translated elementary transvections tau_{t, t+e_i}(lambda).  Any
product of such matrices only has off-diagonal entries (p, q) with
q - p componentwise non-negative, because that entry set is closed under
matrix products and inverses.  A transvection tau_{a,b}(lambda) whose
displacement b - a has a negative coordinate is therefore provably
outside the generated subgroup (for d >= 2), and decompose_upcloner
raises UndecomposableError for it.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (BudgetError, ContractViolation, UndecomposableError,
                     UnsupportedFamilyError)
from .gf import GF
from .groups import ZdGroup, word_length
from .halo import HaloGroup, Lamp, UpclonerHalo, enumerate_block, make_halo

Word = List[Tuple[int, int]]
DEFAULT_WORD_CAP = 10 ** 5


def evaluate_word(halo: HaloGroup, word: Word):
    """The product of the word's letters: a -1 letter steps by the index of
    its generator's inverse, halo.inverse_index[idx] (the generator list is
    closed under inversion).  A lamp letter is one halo.step; a base letter
    moves the cursor alone by halo.base.step, as halo.step does."""
    inverse = halo.inverse_index
    n = len(inverse)
    off = halo.base_gen_offset
    base_step, step = halo.base.step, halo.step
    lamp, cursor = halo.identity()
    for letter in word:
        try:
            idx, exp = letter
            in_range = 0 <= idx < n
        except (TypeError, ValueError):
            raise ContractViolation(f"malformed word letter {letter!r}") from None
        if not in_range:
            raise ContractViolation(f"generator index {idx} out of range")
        if exp == -1:
            idx = inverse[idx]
        elif exp != 1:
            raise ContractViolation("word exponents must be +-1")
        if idx >= off:
            cursor = base_step(cursor, idx - off)
        else:
            lamp, cursor = step((lamp, cursor), idx)
    return (lamp, cursor)


def invert_word(word: Word) -> Word:
    return [(idx, -exp) for idx, exp in reversed(word)]


# ---------------------------------------------------------------------------
# commutator identity oracle

def commutator_transvection(gf: GF, r, f, s, lam: int, mu: int) -> Lamp:
    """tau_{r,f}(-lam) tau_{f,s}(-mu) tau_{r,f}(lam) tau_{f,s}(mu) for sites
    r, f, s of Z, by matrix multiplication in cloner(GF q, Z); returned
    verbatim as a matrix payload."""
    if len({r, f, s}) != 3:
        raise ContractViolation("r, f, s must be pairwise distinct")
    cloner = make_halo("cloner", gf, ZdGroup(1))
    t_rf = lambda c: cloner.make_lamp({(r, f): c})
    t_fs = lambda c: cloner.make_lamp({(f, s): c})
    out = t_rf(gf.neg(lam))
    for factor in (t_fs(gf.neg(mu)), t_rf(lam), t_fs(mu)):
        out = cloner.lamp_compose(out, factor)
    return out


def certify_commutator_form(qs: Sequence[int] = (2, 3, 4, 5)) -> str:
    """Decide which closed form the four-factor product satisfies.

    Returns 'lambda_mu' if the product always equals tau_{r,s}(lam*mu),
    'lambda' if it always equals tau_{r,s}(lam); raises if neither form
    holds uniformly.
    """
    r, f, s = (0,), (1,), (2,)
    holds = {"lambda_mu": True, "lambda": True}
    for q in qs:
        gf = GF(q)
        cloner = make_halo("cloner", gf, ZdGroup(1))
        for lam in gf.elements:
            for mu in gf.elements:
                got = commutator_transvection(gf, r, f, s, lam, mu)
                if got != cloner.make_lamp({(r, s): gf.mul(lam, mu)}):
                    holds["lambda_mu"] = False
                if got != cloner.make_lamp({(r, s): lam}):
                    holds["lambda"] = False
    for form in ("lambda_mu", "lambda"):
        if holds[form]:
            return form
    raise AssertionError("no closed form certified for the commutator identity")


_CERTIFIED_FORM: Optional[str] = None


def certified_form() -> str:
    global _CERTIFIED_FORM
    if _CERTIFIED_FORM is None:
        _CERTIFIED_FORM = certify_commutator_form()
    return _CERTIFIED_FORM


# ---------------------------------------------------------------------------
# shared helpers

class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self, n: int):
        self.used += n
        if self.used > self.cap:
            raise BudgetError(f"word length cap exceeded ({self.used} > {self.cap})")


def _kept(halo: HaloGroup, name: str) -> Dict:
    """The dict that halo keeps under the attribute name, made empty on
    first use: what a halo's decompositions share."""
    return vars(halo).setdefault(name, {})


def _subset_measure(halo: HaloGroup, sites) -> Tuple[int, int]:
    """(translation-normalized subset length, cardinality).

    Subsets are normalized by translating their first site to the
    identity before summing word lengths, matching the proof's bookkeeping
    (each recursion step re-translates its block to the origin).
    """
    sites = sorted(sites)
    if not sites:
        return (0, 0)
    base = halo.base
    anchor_inv = base.invert(sites[0])
    return (sum(word_length(base, base.multiply(anchor_inv, s), math.inf) for s in sites),
            len(sites))


def _check_lamp(halo: HaloGroup, lamp: Lamp):
    """ContractViolation unless lamp is a canonical lamp payload of halo,
    checked before any search reads it."""
    if not halo.is_element((lamp, halo.base.identity())):
        raise ContractViolation(f"{lamp!r} is not a lamp of {halo.spec}")


def _record_step(trace: Optional[list], parent, child):
    if parent is not None:
        assert child < parent, f"recursion measure did not decrease: {parent} -> {child}"
    if trace is not None and parent is not None:
        trace.append((parent, child))


def _lamp_bfs(halo: HaloGroup, moves: Sequence[Tuple[Lamp, list]],
              target: Optional[Lamp] = None) -> Tuple[Callable, Dict]:
    """Breadth-first search over products of the move lamps, from the
    identity lamp.

    A move is a pair (lamp, labels).  The search steps the lamp codes of
    ``halo._lamp_codes``: one byte code for wreath, designer, shuffler and
    juggler lamps, each coded as the permutation it makes of the points
    site x fiber (|F| = 1 for shuffler and juggler), one bytes.translate
    per step; GF(2) cloner and upcloner lamps as ints, one shift and XOR
    per column the move adds.  Where the hook returns None, it steps the
    payloads themselves by lamp_compose.  Returns
    (encode, paths), where paths maps encode(lamp) to the labels of the
    moves along the first path that reached the lamp, concatenated, in the
    order the search reached them.  It stops as soon as ``target`` is reached, and
    raises UndecomposableError if it cannot be; with no target it visits
    the whole subgroup the moves generate.
    """
    lamps = [lamp for lamp, _ in moves]
    codes = halo._lamp_codes(lamps)
    if codes is None:  # search the payloads themselves
        codes = (lambda a: a), lamps, halo.lamp_compose
    encode, operands, step = codes
    steps = list(zip(operands, [labels for _, labels in moves]))
    start = encode(halo.lamp_identity())
    paths: Dict = {start: []}
    frontier = [start]
    goal = None
    if target is not None:
        try:
            goal = encode(target)
        except KeyError:  # the target moves a point that no move touches
            frontier = []
    while frontier and goal not in paths:
        new_frontier = []
        for state in frontier:
            for operand, labels in steps:
                nxt = step(state, operand)
                if nxt not in paths:
                    paths[nxt] = paths[state] + labels
                    if nxt == goal:
                        return encode, paths
                    new_frontier.append(nxt)
        frontier = new_frontier
    if target is not None and goal not in paths:
        raise UndecomposableError(
            "target lamp is not in the subgroup generated by the provided blocks")
    return encode, paths


def _edge_table(halo: HaloGroup, p, q) -> Tuple[Callable, Dict[object, Word]]:
    """Word table for the block L({p, q}), q adjacent to p, as the
    (encode, paths) of _lamp_bfs: the word of a lamp is paths[encode(lamp)].

    Candidate generators are the conjugates act(t, g) of natural lamp
    generators g whose translated support lands inside {p, q}; each comes
    with the word  path(t) g path(t)^-1.  Two translates can give the same
    conjugate (the swap (e s) for an involution s); the stable sort by word
    length puts the shorter word first, and _lamp_bfs keeps the first path
    to each lamp.
    """
    cache = _kept(halo, "_edge_tables")
    ckey = (p, q)
    if ckey in cache:
        return cache[ckey]

    base = halo.base
    sites = {p, q}
    gens = halo.generators()
    lamp_gens = gens[: halo.base_gen_offset]
    candidates: List[Tuple[Lamp, Word]] = []
    for gi, (lg, _cursor) in enumerate(lamp_gens):
        supp = halo.lamp_sites(lg)
        ts = set()
        for u in supp:
            for site in (p, q):
                ts.add(base.multiply(site, base.invert(u)))
        for t in sorted(ts):
            moved = halo.lamp_act(t, lg)
            if not halo.lamp_sites(moved) <= sites:
                continue
            path = halo.base_word(t)
            candidates.append((moved, path + [(gi, 1)] + invert_word(path)))
    candidates.sort(key=lambda cw: len(cw[1]))
    table = cache[ckey] = _lamp_bfs(halo, candidates)
    return table


def _edge_word(halo: HaloGroup, p, q, lamp: Lamp, budget: _Budget) -> Word:
    encode, table = _edge_table(halo, p, q)
    try:
        word = table[encode(lamp)]
    except KeyError:
        raise UndecomposableError(
            f"block element on {{{p!r}, {q!r}}} is outside the subgroup generated "
            "by conjugated natural generators") from None
    budget.spend(len(word))
    return word


def _factor_block(halo: HaloGroup, sites: Sequence) -> List[Lamp]:
    """The non-identity elements of L(sites), enumerated once per site set
    and kept on the halo: factor searches ask for the same blocks again and
    again, across the items of a run."""
    cache = _kept(halo, "_factor_blocks")
    key = frozenset(sites)
    block = cache.get(key)
    if block is None:
        ident = halo.lamp_identity()
        block = cache[key] = [l for l in enumerate_block(halo, sites) if l != ident]
    return block


# ---------------------------------------------------------------------------
# the decomposition recursion

def _decompose(halo: HaloGroup, lamp: Lamp, word_cap: int, trace: Optional[list]) -> Word:
    """Word over natural generators whose evaluation is (lamp, 1_H).

    One recursion on the sorted sites R of a lamp, recording the measure of
    R at every step.  |R| >= 3 splits off the two least sites: the lamp is
    factored over L(R[:2]) and L(R[1:]) and each factor recursed into.  What
    is left is the family's base case: an upcloner pair is a transvection;
    a gluing singleton or adjacent pair is read from its edge-block table,
    and a non-adjacent gluing pair {a, b} is factored over L({a, c}) and
    L({c, b}) for the geodesic midpoint c.
    """
    base = halo.base
    budget = _Budget(word_cap)
    upcloner = isinstance(halo, UpclonerHalo)

    def factor(lamp: Lamp, r1: Sequence, r2: Sequence, measure) -> Word:
        # the shortest ordered product of non-identity elements of L(r1) and
        # L(r2), by lamp BFS, each factor decomposed in turn
        blocks = _factor_block(halo, r1) + _factor_block(halo, r2)
        encode, paths = _lamp_bfs(halo, [(l, [l]) for l in blocks], lamp)
        word: Word = []
        for f in paths[encode(lamp)]:
            word += rec(f, measure)
        return word

    def rec(lamp: Lamp, parent) -> Word:
        sites = sorted(halo.lamp_sites(lamp))
        if not sites:
            return []
        measure = _subset_measure(halo, sites)
        _record_step(trace, parent, measure)
        if len(sites) >= 3:
            return factor(lamp, sites[:2], sites[1:], measure)
        if upcloner:
            ((p, q), lam), = lamp
            return _transvection_word(halo, p, q, lam, None, budget, trace)
        a = sites[0]
        if len(sites) == 1:
            return _edge_word(halo, a, base.multiply(a, base.generators()[0]), lamp, budget)
        b = sites[1]
        path = halo.base_word(base.multiply(base.invert(a), b))
        if len(path) == 1:
            return _edge_word(halo, a, b, lamp, budget)
        # insert the geodesic midpoint c: L({a,b}) <= <L({a,c}), L({c,b})>
        gens = halo.generators()
        c = a
        for idx, _ in path[: len(path) // 2]:
            c = base.multiply(c, gens[idx][1])
        return factor(lamp, [a, c], [c, b], measure)

    # a copy: base cases return the words kept on the halo
    return list(rec(lamp, None))


def decompose_gluing(halo: HaloGroup, lamp: Lamp, word_cap: int = DEFAULT_WORD_CAP,
                     trace: Optional[list] = None) -> Word:
    """Word over natural generators whose evaluation is (lamp, 1_H), for a
    family with the gluing property (every family but upcloner)."""
    if isinstance(halo, UpclonerHalo):
        raise UnsupportedFamilyError(
            "upcloner lacks the gluing property; use decompose_upcloner")
    _check_lamp(halo, lamp)
    return _decompose(halo, lamp, word_cap, trace)


def decompose_upcloner(halo: UpclonerHalo, lamp: Lamp, word_cap: int = DEFAULT_WORD_CAP,
                       trace: Optional[list] = None) -> Word:
    """Word over natural generators whose evaluation is (lamp, 1_H), for an
    upcloner over Z^d, sites ordered by tuple < (the lexicographic order,
    whether or not the spec names it ``:lex``).

    Words grow about 2.3x per unit of displacement between two sites: the
    transvection tau_{(0,0),(0,k)} over Z^2 takes 1, 8, 34, 110, 310
    letters for k = 1..5, so at k = 12 it exceeds the default word_cap."""
    if not isinstance(halo, UpclonerHalo):
        raise UnsupportedFamilyError("decompose_upcloner requires an upcloner halo")
    if not isinstance(halo.base, ZdGroup):
        raise UnsupportedFamilyError("decompose_upcloner is implemented for Z^d bases")
    _check_lamp(halo, lamp)
    return _decompose(halo, lamp, word_cap, trace)


# ---------------------------------------------------------------------------
# the upcloner base case: the three-case transvection recursion

def _gen_index(halo: UpclonerHalo, i: int, lam: int) -> int:
    """Index of the natural generator tau_{0, e_i}(lam), looked up in
    halo.generator_index once per (i, lam) and kept on the halo: the lookup
    builds the lamp by make_lamp, too slow to repeat at every leaf of the
    transvection recursion."""
    cache = _kept(halo, "_gen_indices")
    gi = cache.get((i, lam))
    if gi is None:
        e = halo.base.identity()
        ei = tuple(1 if j == i else 0 for j in range(halo.base.d))
        gi = halo.generator_index.get((halo.make_lamp({(e, ei): lam}), e))
        if gi is None:
            raise AssertionError("elementary transvection missing from the generator list")
        cache[(i, lam)] = gi
    return gi


def _transvection_word(halo: UpclonerHalo, a, b, lam: int, parent,
                       budget: _Budget, trace: Optional[list]) -> Word:
    """Word for tau_{a,b}(lam); a < b lex, lam nonzero.  Its recursion
    measure is (|b - a|_1,), and parent is the caller's (None at the top).

    A word depends only on the halo and (a, b, lam), so each is built once
    and kept on the halo with its measure and the keys of the subwords it
    was built from (the four-factor step asks for each of its halves twice
    over GF(2), where -lam = lam).  A kept word spends its whole length
    from the budget, as building it did, and replays its recursion steps
    into the trace in the order building it recorded them."""
    if lam == 0:
        return []
    memo = _kept(halo, "_transvection_words")
    entry = memo.get((a, b, lam))
    if entry is not None:
        word, measure, _ = entry
        _record_step(trace, parent, measure)
        if trace is not None:
            _replay_steps(memo, entry, trace)
        budget.spend(len(word))
        return word

    base = halo.base
    gf = halo.gf
    v = tuple(y - x for x, y in zip(a, b))
    measure = (sum(abs(x) for x in v),)
    _record_step(trace, parent, measure)

    i = next(j for j, x in enumerate(v) if x != 0)
    if v[i] < 0:
        raise AssertionError("a < b lex implies leading displacement > 0")

    ei = tuple(1 if j == i else 0 for j in range(base.d))
    if v == ei:
        path = halo.base_word(a)
        word = path + [(_gen_index(halo, i, lam), 1)] + invert_word(path)
        budget.spend(len(word))
        memo[(a, b, lam)] = (word, measure, ())
        return word

    if any(x < 0 for x in v):
        raise UndecomposableError(
            f"transvection displacement {v} has a negative coordinate: products of "
            "translated elementary transvections only realize displacements in N^d, "
            "so this element is outside the naturally generated subgroup")

    if v[i] >= 2:
        h = ei
    else:  # v[i] == 1 and v != ei
        i0 = next(j for j in range(i + 1, base.d) if v[j] != 0)
        h = tuple((1 if j == i else 0) + ((v[i0] - 1) if j == i0 else 0)
                  for j in range(base.d))
    f = tuple(x + y for x, y in zip(a, h))

    # the four-factor product is tau_{a,b}(lam * mu) or tau_{a,b}(lam), as
    # certified (certified_form raises if neither holds); with mu = 1 both
    # forms give tau_{a,b}(lam)
    certified_form()
    mu = 1
    children = ((a, f, gf.neg(lam)), (f, b, gf.neg(mu)), (a, f, lam), (f, b, mu))
    word: Word = []
    for p, q, c in children:
        word += _transvection_word(halo, p, q, c, measure, budget, trace)
    memo[(a, b, lam)] = (word, measure, children)
    return word


def _replay_steps(memo: Dict, entry, trace: list):
    """Append the recursion steps below a kept word to the trace, depth
    first in the order its subwords were built."""
    _, measure, children = entry
    for child in children:
        sub = memo[child]
        trace.append((measure, sub[1]))
        _replay_steps(memo, sub, trace)
