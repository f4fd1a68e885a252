"""Halo products L(H) |x H as GroupHandles.

Six families: wreath (lamps: finitely supported maps H -> F), shuffler
(finitely supported permutations of H), juggler (permutations of
H x {0..s-1} fixing the track under translation), designer (pairs map +
permutation), cloner (finitely supported invertible matrices over GF(q)),
upcloner (unitriangular matrices w.r.t. a translation-invariant total
order on the base).

Elements are pairs (lamp, cursor) with the semidirect law
(sigma, h)(tau, k) = (sigma * act(h, tau), h k), where act(h, -)
translates lamp supports by h.  Lamp payloads are canonical tuples
(deviation-from-identity entries, sorted), so structural equality is
group equality.  Entries are sorted by the points' own order ``<`` (the
element order of GroupHandle), with no key function; juggler points
(x, i) and matrix positions (p, q) sort as tuples.  The payload format
is private to this module:
payloads are built only by each family's ``make_lamp`` (from a mapping,
checked) and by the family methods (``lamp_compose``, ``lamp_act``,
``block_elements``, ...); other modules go through those.
``block_elements`` builds each distinct entry of a block once and
assembles the payloads from those objects, so the payloads of a block
share one object per entry (a Lambda(n)-element block holds only the
O(n^2) entries of its sites).

``step(a, i)`` is a * generators()[i] without a general product.  A base
generator moves only the cursor: (sigma, base.step(h, j)), so halos over
halos step through their base's own step.  A lamp generator t at cursor h
right-multiplies sigma by its translate t_h = lamp_act(h, t), which is
computed once per cursor and kept (at most _STEP_CACHE_CURSORS cursors),
and ``_step_lamp`` applies t_h as a local edit of the sorted payload,
with no dict round-trip and no re-sort:

- shuffler / juggler: t_h is the transposition (P Q); sigma o (P Q)
  trades the images of P and Q, found by bisection, and drops a point
  that becomes fixed;
- wreath: t_h = {h: f}; the value at h is multiplied by f;
- designer: a fiber generator multiplies the value at sigma(h) by f, a
  transposition edits the permutation part as for shuffler;
- cloner / upcloner: t_h = I + lam E_PQ adds lam * column P to column Q;
  a diagonal cloner generator (P = Q) scales column P by lam.

``_lamp_codes(moves, lamps)`` is the one lamp code of a family, for
products of lamps with the moves.  Wreath, designer, shuffler and
juggler share one byte code (``_PointHalo``): F wr Sym(X) acts faithfully
on the points X x F by (f, s).(x, c) = (s x, f(s x) c), and composing
these actions follows ``lamp_compose``'s order for any fiber F, so a lamp
is coded as bytes, the permutation of the points (x, c) it makes, x in
the X of the moves and the lamps.  A wreath lamp is (f, id); a shuffler
or juggler lamp is (1, s) with |F| = 1, so its points are X itself, the
sites (juggler: the points (site, track)).  A product with a move is one
``bytes.translate`` and a lookup hashes flat bytes.  Over GF(2) cloner
and upcloner code a lamp as an int, its 0/1 matrix over the sites of the
moves and the lamps column by column, so a product with a move I + N is
one shift and XOR per entry of N, a column added to a column, and a
lookup hashes one int.  Matrices over GF(3), GF(4) and GF(5), and
supports of more than 256 points (x, c) have no code.  Two readers use
it.  ``step_rows(pairs, outside)`` serves the neighbour values of a
function on the halo, given as (element, value) pairs, for
``gradient_ratio``, with one code per connected run of cursors (cursors
joined by base generators).  The code is made from the moves alone, the
translated generators of the run's cursors, and the run's distinct lamp
objects are coded once each, in one map (the lamps of a lift share one
block's objects at every cursor, and a lift's cursors are one run).  A
lamp at a point no move touches makes encode raise KeyError, and then
the code is made again over the run's lamps too: a wreath or upcloner
lift takes that path, as their generators at the cursors U touch fewer
sites than V = U u U.S, while the lamps of a shuffler, juggler, designer
or cloner lift are never scanned for their points.  Each cursor h keeps
a table code -> value; a lamp generator's row steps the codes at h, and
a base generator's row looks them up in the table of h s, in the same
run or empty, so no row hashes a payload; a code missing from its table
reads 0, or outside(f(g)).  A run's tables are alive until its rows are
done, and a GF(2) code over a run's n sites has n^2 bits.  Where there
is no code, the same loop runs with each payload as its own code,
stepped by ``_step_lamp``.  ``decompose``'s lamp BFS (its factor searches
and edge tables) steps codes the same way, or the payloads themselves by
``lamp_compose``.

``multiply`` stays the general product and the oracle for ``step`` and
``step_rows``.  ``base_word`` and ``commutativity_constant`` read the
base's ``cayley_ball``, the one ball of its word lengths.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from operator import getitem
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import BudgetError, ContractViolation, NotInDomainError
from .gf import GF
from .groups import GroupHandle, word_length

Lamp = Tuple  # canonical payload tuple, family-specific
DEFAULT_ENUM_BUDGET = 10 ** 6
_STEP_CACHE_CURSORS = 4096  # cursors whose translated lamp generators step() keeps


# ---------------------------------------------------------------------------
# permutation payload helpers (tuples of (x, sigma(x)) pairs, no fixed points)

def _perm_canonical(mapping: Dict) -> Lamp:
    items = [(x, y) for x, y in mapping.items() if x != y]
    items.sort()
    return tuple(items)


def _perm_compose(a: Lamp, b: Lamp) -> Lamp:
    # (a o b)(x) = a(b(x)): only the points b moves change their image
    da = dict(a)
    out = dict(da)
    for x, y in b:
        out[x] = da.get(y, y)
    return _perm_canonical(out)


def _perm_invert(a: Lamp) -> Lamp:
    return _perm_canonical({y: x for x, y in a})


def _perm_translate(move, h, a: Lamp) -> Lamp:
    """h . a: the permutation x -> h a(h^-1 x), for the point action move(h, x)."""
    moved = {x: move(h, x) for x, _ in a}  # a permutes its support: one move per point
    return _perm_canonical({moved[x]: moved[y] for x, y in a})


def _perm_image(a: Lamp, x):
    i = bisect_left(a, (x,))
    return a[i][1] if i < len(a) and a[i][0] == x else x


def _perm_swap(a: Lamp, P, Q) -> Lamp:
    """a o (P Q) for points P < Q: P and Q trade images, nothing else moves."""
    i = bisect_left(a, (P,))
    has_p = i < len(a) and a[i][0] == P
    j = bisect_left(a, (Q,), i)
    has_q = j < len(a) and a[j][0] == Q
    image_p = a[j][1] if has_q else Q
    image_q = a[i][1] if has_p else P
    return (a[:i] + (((P, image_p),) if image_p != P else ()) + a[i + has_p:j]
            + (((Q, image_q),) if image_q != Q else ()) + a[j + has_q:])


def _perm_block(points: Sequence) -> List[Lamp]:
    """Every permutation of the sorted, distinct points, in
    itertools.permutations order.  pairs[i][j] is the entry
    (points[i], points[j]), built once; a fixed point (None) is dropped,
    and the points are sorted, so each payload comes out canonical."""
    pairs = [[(x, y) if x != y else None for y in points] for x in points]
    return [tuple(filter(None, map(getitem, pairs, images)))
            for images in itertools.permutations(range(len(points)))]


def _perm_lamp(mapping: Dict) -> Lamp:
    """The canonical payload of a point -> image mapping, checked to be a
    bijection of its support."""
    lamp = _perm_canonical(mapping)
    # a canonical payload has distinct points and no fixed point, so it is a
    # bijection of its support exactly when the images cover the points
    images = dict(lamp)
    if images.keys() != set(images.values()):
        raise ContractViolation("permutation payload is not a bijection on its support")
    return lamp


def _entry_block(table: Sequence[Sequence]) -> List[Lamp]:
    """Every payload that picks one item from each row of table, in
    itertools.product order; a None item adds no entry.  The rows are in
    payload order and each entry object is built once, in its row."""
    return [tuple(filter(None, choice)) for choice in itertools.product(*table)]


# ---------------------------------------------------------------------------
# map payload helpers (tuples of (x, f(x)) pairs, no fiber-identity values)

def _map_canonical(mapping: Dict, fiber: GroupHandle) -> Lamp:
    e = fiber.identity()
    items = [(x, v) for x, v in mapping.items() if v != e]
    items.sort()
    return tuple(items)


def _map_compose(da: Dict, db: Dict, fiber: GroupHandle) -> Lamp:
    """Pointwise product of two maps given as dicts."""
    e = fiber.identity()
    out = {x: fiber.multiply(da.get(x, e), db.get(x, e)) for x in set(da) | set(db)}
    return _map_canonical(out, fiber)


def _map_translate(base: GroupHandle, h, a: Lamp, fiber: GroupHandle) -> Lamp:
    """h . a: the map x -> a(h^-1 x)."""
    return _map_canonical({base.multiply(h, x): v for x, v in a}, fiber)


def _map_times_at(a: Lamp, x, f, fiber: GroupHandle) -> Lamp:
    """a * {x: f}: the value at x is multiplied by f on the right."""
    i = bisect_left(a, (x,))
    if i < len(a) and a[i][0] == x:
        v, j = fiber.multiply(a[i][1], f), i + 1
    else:
        v, j = f, i
    return a[:i] + (((x, v),) if v != fiber.identity() else ()) + a[j:]


# ---------------------------------------------------------------------------
# matrix payload helpers (tuples of ((p, q), v) deviations from identity)

def _mat_canonical(entries: Dict) -> Lamp:
    items = [((p, q), v) for (p, q), v in entries.items() if v != (1 if p == q else 0)]
    items.sort()
    return tuple(items)


def _mat_sites(a: Lamp) -> FrozenSet:
    out = set()
    for (p, q), _ in a:
        out.add(p)
        out.add(q)
    return frozenset(out)


def _mat_entry(a: Dict, p, q) -> int:
    return a.get((p, q), 1 if p == q else 0)


def _sparse_rows(payload: Lamp, sites) -> Dict:
    """Row maps of the full matrix (stored deviations + implicit diagonal)."""
    rows = {p: {} for p in sites}
    for (p, q), v in payload:
        rows[p][q] = v
    for p in sites:
        if p not in rows[p]:
            rows[p][p] = 1
    return rows


def _mat_compose(a: Lamp, b: Lamp, gf: GF) -> Lamp:
    sites = _mat_sites(a) | _mat_sites(b)
    rows_a = _sparse_rows(a, sites)
    rows_b = _sparse_rows(b, sites)
    add, mul = gf.add, gf.mul
    out = {}
    for p in sites:
        acc: Dict = {}
        for x, av in rows_a[p].items():
            if av == 0:
                continue
            for q, bv in rows_b[x].items():
                if bv != 0:
                    acc[q] = add(acc.get(q, 0), mul(av, bv))
        acc[p] = acc.get(p, 0)  # a zero diagonal must be stored explicitly
        for q, v in acc.items():
            out[(p, q)] = v
    return _mat_canonical(out)


def _mat_add_column(a: Lamp, P, Q, lam: int, gf: GF) -> Lamp:
    """a * (I + lam E_PQ) for P != Q: column Q gains lam times column P."""
    column = [(r, v) for (r, c), v in a if c == P and v]
    i = bisect_left(a, ((P, P),))
    if not (i < len(a) and a[i][0] == (P, P)):
        insort(column, (P, 1))  # the implicit diagonal entry
    add, mul = gf.add, gf.mul
    out: List = []
    pos = 0
    for r, v in column:
        key = (r, Q)
        k = bisect_left(a, (key,), pos)
        out += a[pos:k]
        unit = 1 if r == Q else 0
        if k < len(a) and a[k][0] == key:
            old, pos = a[k][1], k + 1
        else:
            old, pos = unit, k
        new = add(old, mul(lam, v))
        if new != unit:
            out.append((key, new))
    out += a[pos:]
    return tuple(out)


def _mat_scale_column(a: Lamp, P, lam: int, gf: GF) -> Lamp:
    """a * diag(.., lam at P, ..) for a unit lam != 1: column P times lam."""
    mul = gf.mul
    out = [((r, c), mul(lam, v)) if c == P else ((r, c), v) for (r, c), v in a]
    i = bisect_left(out, ((P, P),))
    if i < len(out) and out[i][0] == (P, P):
        if out[i][1] == 1:
            del out[i]
    else:
        out.insert(i, ((P, P), lam))  # the implicit diagonal 1, scaled
    return tuple(out)


def _mat_rows(a: Lamp, sites: Sequence) -> List[List[int]]:
    d = dict(a)
    return [[_mat_entry(d, p, q) for q in sites] for p in sites]


def _mat_from_rows(rows: Sequence[Sequence[int]], sites: Sequence) -> Lamp:
    entries = {}
    for i, p in enumerate(sites):
        for j, q in enumerate(sites):
            entries[(p, q)] = rows[i][j]
    return _mat_canonical(entries)


def _mat_invert(a: Lamp, gf: GF) -> Lamp:
    sites = sorted(_mat_sites(a))
    n = len(sites)
    rows = _mat_rows(a, sites)
    aug = [rows[i] + [1 if j == i else 0 for j in range(n)] for i, _ in enumerate(sites)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ContractViolation("matrix payload is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = gf.inv(aug[col][col])
        aug[col] = [gf.mul(inv, v) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [gf.sub(v, gf.mul(factor, w)) for v, w in zip(aug[r], aug[col])]
    inv_rows = [row[n:] for row in aug]
    return _mat_from_rows(inv_rows, sites)


# ---------------------------------------------------------------------------
# lamp code helpers (see HaloGroup._lamp_codes)

class _TermTable(dict):
    """entry -> term(entry) of a lamp code, built over the distinct entries
    of the lamps a code is made for.  Of equal entries the table keeps a
    lamp's own object, which the lamps of a block share, so a lookup by it
    finds its key by identity and compares no tuples.  Any other entry (a
    move's, a searched lamp's) is computed on its first lookup."""

    def __init__(self, term: Callable, entries: set):
        super().__init__(zip(entries, map(term, entries)))
        self.term = term

    def __missing__(self, entry):
        value = self[entry] = self.term(entry)
        return value


def _cursor_runs(cursors, base_step: Callable, base_steps: range) -> List[List]:
    """The connected runs of the cursors (a collection) under the base
    generators, base_step(h, j) for j in base_steps: each run a list of
    cursors in breadth-first order, the runs in the order of their first
    cursor."""
    left = dict.fromkeys(cursors)
    runs = []
    for start in cursors:
        if start in left:
            del left[start]
            run = [start]
            for h in run:  # the run grows while it is read
                for j in base_steps:
                    k = base_step(h, j)
                    if k in left:
                        del left[k]
                        run.append(k)
            runs.append(run)
    return runs


def _encoded(codes, lamps: Iterable) -> Optional[List]:
    """The codes of the lamps in one map, by the encode of codes (a
    _lamp_codes result), or None when codes is None."""
    return None if codes is None else list(map(codes[0], lamps))


# ---------------------------------------------------------------------------
# the halo handle

class HaloGroup(GroupHandle):
    """Common machinery for all six families."""

    family: str = "?"

    def __init__(self, params, base: GroupHandle):
        """Shared set-up, which each family calls last, once the fields its
        lamp_generators reads are set.  It fixes the generator list: the
        lamp generators at the identity cursor, then the base generators
        with no lamp, from index base_gen_offset on; generator_index, which
        maps each generator to its index; and inverse_index, whose entry i
        is the index of the inverse of generator i (the list is closed
        under inversion)."""
        self.base = base
        self.params = params  # the family parameter, as make_halo and lamp_growth take it
        self._translated: Dict = {}  # cursor h -> [lamp_act(h, t) for each lamp generator t]
        lamp_part = [(g, base.identity()) for g in self.lamp_generators()]
        self._gens = lamp_part + [(self.lamp_identity(), s) for s in base.generators()]
        self.base_gen_offset = len(lamp_part)
        index = self.generator_index = {g: i for i, g in enumerate(self._gens)}
        self.inverse_index = tuple(index[self.invert(g)] for g in self._gens)

    # -- family interface ---------------------------------------------------
    def make_lamp(self, entries) -> Lamp:
        """The canonical payload of a lamp given as a mapping (the family's
        own form, see the subclasses); ContractViolation if it is no lamp."""
        raise NotImplementedError

    def lamp_identity(self) -> Lamp:
        return ()

    def lamp_compose(self, a: Lamp, b: Lamp) -> Lamp:
        raise NotImplementedError

    def lamp_invert(self, a: Lamp) -> Lamp:
        raise NotImplementedError

    def lamp_act(self, h, a: Lamp) -> Lamp:
        raise NotImplementedError

    def lamp_sites(self, a: Lamp) -> FrozenSet:
        """Base-group points on which the lamp config deviates from identity."""
        raise NotImplementedError

    def lamp_generators(self) -> List[Lamp]:
        raise NotImplementedError

    def _step_lamp(self, a: Lamp, t: Lamp) -> Lamp:
        """lamp_compose(a, t) for t a translated lamp generator, as a local
        edit of a."""
        raise NotImplementedError

    def _lamp_codes(self, moves: Sequence[Lamp], lamps: Iterable[Lamp] = ()):
        """The family's lamp code for products of lamps with the moves:
        (encode, operands, step), where encode is injective on the lamps
        whose points lie among the moves' and the given lamps' (an
        iterable), and step(encode(a), operands[i]) ==
        encode(lamp_compose(a, moves[i])).  encode may raise KeyError for a
        lamp at other points.  step_rows asks for one code per connected
        run of cursors, from the run's translated generators alone and, if
        encode raises KeyError on one of the run's lamps, again with its
        distinct lamps, so that lamps at the cursors of a run compare by
        their codes; the code grows with the run's points.  None means no
        code (here: this family has none); None for some moves must mean
        None for them with any lamps too, since step_rows then asks no
        more."""
        return None

    def block_elements(self, sites: Sequence) -> List[Lamp]:
        """Complete list of L(sites); call via enumerate_block for budgeting."""
        raise NotImplementedError

    def growth(self, n: int) -> int:
        """Lambda(n) = |L(F)| for any n-site set F."""
        return lamp_growth(self.family, self.params, n)

    # -- GroupHandle --------------------------------------------------------
    def identity(self):
        return (self.lamp_identity(), self.base.identity())

    def multiply(self, a, b):
        (sa, ha), (sb, hb) = a, b
        cursor = self.base.multiply(ha, hb)
        no_lamp = self.lamp_identity()
        if sb == no_lamp:  # e.g. a base-generator step: only the cursor moves
            return (sa, cursor)
        moved = self.lamp_act(ha, sb)
        return (moved if sa == no_lamp else self.lamp_compose(sa, moved), cursor)

    def invert(self, a):
        sa, ha = a
        hinv = self.base.invert(ha)
        return (self.lamp_invert(self.lamp_act(hinv, sa)), hinv)

    def generators(self):
        return list(self._gens)  # a copy, so no caller can edit the shared list

    def step(self, a, i):
        """a * generators()[i] as a local edit: a base generator moves the
        cursor only, a lamp generator edits the payload where its translate
        to the cursor acts (see the module docstring)."""
        lamp, h = a
        off = self.base_gen_offset
        if i >= off:
            return (lamp, self.base.step(h, i - off))
        moved = self._translated.get(h) or self._translates(h)
        return (self._step_lamp(lamp, moved[i]), h)

    def _translates(self, h) -> List[Lamp]:
        """The lamp generators translated to cursor h, lamp_act(h, t) in
        generator order; kept for at most _STEP_CACHE_CURSORS cursors."""
        moved = self._translated.get(h)
        if moved is None:
            if len(self._translated) >= _STEP_CACHE_CURSORS:
                self._translated.clear()
            moved = self._translated[h] = [self.lamp_act(h, t)
                                           for t, _ in self._gens[:self.base_gen_offset]]
        return moved

    def step_rows(self, pairs, outside=None):
        """GroupHandle.step_rows by cursor: the pairs are grouped by cursor
        h as they are read, and each generator gives one row over the
        lamps at h, the lamp generators first.  The cursors fall into
        connected runs, joined by base generators, and one code serves
        each run: _lamp_codes of the run's translated generators alone,
        which codes each distinct lamp object of the run in one map, so a
        code grows with its run's points, not the support's, and a lamp is
        not scanned for its points.  Where encode raises KeyError (a lamp
        at a point no move touches) the code is made again over the run's
        lamps too.  Each cursor keeps a table code -> value in support
        order; a lamp generator's row steps h's codes and looks them up in
        h's table, and a base generator s's row looks the same codes up in
        the table of h s, which lies in h's run or outside the support
        (empty), so no row hashes a payload.  A code missing from its
        table reads 0, or outside(f(g)).  With no code each payload is its
        own code: the operands are the translated generators, and the step
        is _step_lamp."""
        cursors: Dict = {}  # cursor -> (its lamps, their values)
        for (lamp, h), v in pairs:
            group = cursors.get(h)
            if group is None:
                group = cursors[h] = ([], [])
            group[0].append(lamp)
            group[1].append(v)
        base_step = self.base.step
        base_steps = range(len(self._gens) - self.base_gen_offset)
        repeat = itertools.repeat
        empty: Dict = {}
        for run in _cursor_runs(cursors, base_step, base_steps):
            operands = list(itertools.chain.from_iterable(map(self._translates, run)))
            lamp_lists = [cursors[h][0] for h in run]
            distinct: Dict = {}  # id(lamp) -> lamp
            for lamps in lamp_lists:
                distinct.update(zip(map(id, lamps), lamps))
            codes = self._lamp_codes(operands)
            try:
                coded = _encoded(codes, distinct.values())
            except KeyError:  # a lamp at a point no move touches
                codes = self._lamp_codes(operands, distinct.values())
                coded = _encoded(codes, distinct.values())
            if codes is None:
                step = self._step_lamp
            else:
                operands, step = codes[1:]
                # now id(lamp) -> its code: update only replaces values, so it
                # may read distinct's keys meanwhile
                distinct.update(zip(distinct, coded))
                del coded
                for lamps in lamp_lists:  # each cursor now lists its lamps' codes
                    lamps[:] = map(distinct.__getitem__, map(id, lamps))
            del distinct, lamp_lists
            # cursor -> {code: value}, in support order; a group is dropped once tabled
            tables = {h: dict(zip(*cursors.pop(h))) for h in run}
            operands = iter(operands)  # base_gen_offset of them per cursor, in run order
            for h, table in tables.items():
                vals = list(table.values())
                missing = repeat(0) if outside is None else list(map(outside, vals))
                for operand in itertools.islice(operands, self.base_gen_offset):
                    yield vals, map(table.get, map(step, table, repeat(operand)), missing)
                for j in base_steps:
                    yield vals, map(tables.get(base_step(h, j), empty).get, table, missing)

    def is_element(self, a):
        """A (lamp, cursor) pair whose cursor is a base element and whose
        lamp is a payload make_lamp gives back from its own entries, with
        every site a base element: as strict as make_lamp's checks."""
        if not (type(a) is tuple and len(a) == 2 and self.base.is_element(a[1])):
            return False
        lamp = a[0]
        try:
            return (self.make_lamp(self._lamp_entries(lamp)) == lamp
                    and all(self.base.is_element(x) for x in self.lamp_sites(lamp)))
        except (ContractViolation, TypeError, ValueError):
            return False

    def _lamp_entries(self, lamp: Lamp):
        """The mapping make_lamp takes for a payload (its inverse)."""
        return dict(lamp)

    def element_str(self, a):
        lamp, cursor = a
        return f"lamp={lamp!r} cursor={self.base.element_str(cursor)}"

    # -- shared helpers -----------------------------------------------------
    def base_word(self, h, max_radius: float = math.inf) -> List[Tuple[int, int]]:
        """Geodesic word for the base move (1, h), as halo generator indices,
        of word_length(base, h, max_radius) letters (by default with no
        radius limit: the ball's memory budget bounds it), read off the
        base's cayley_ball."""
        word_length(self.base, h, max_radius)
        off = self.base_gen_offset
        return [(off + i, 1) for i, _ in self.base.cayley_ball.word_to(h)]


class _PointHalo(HaloGroup):
    """Shared lamp code of the four families whose lamps permute points.  A
    lamp of F wr Sym(X) is a pair (f, s) of a map X -> F and a permutation
    of X: a designer lamp is one, a wreath lamp is (f, id), and a shuffler
    or juggler lamp is (1, s) with |F| = 1, over the points X = H (juggler:
    H x tracks).  Each family reads the two parts off its own payload
    (``_code_entries``, ``_code_terms``), so no lamp is split in two."""

    _site_points = 1  # |F|, the points (x, c) of one x in X

    def lamp_sites(self, a):
        return frozenset(x for x, _ in a)

    def _code_entries(self, lamps) -> Tuple[set, set]:
        """The distinct map entries and permutation entries of the lamps."""
        raise NotImplementedError

    def _code_terms(self, map_term: Callable, perm_term: Callable) -> Callable[[Lamp], int]:
        """lamp -> the sum of its entries' terms, given each part's term."""
        raise NotImplementedError

    def _lamp_codes(self, moves, lamps=()):
        """HaloGroup._lamp_codes by bytes, as a permutation of points.  A
        lamp (f, s) acts on the points X x F by (f, s).(x, c) =
        (s x, f(s x) c).  For b = (g, t), (f, s).((g, t).(x, c)) =
        (s t x, f(s t x) g(t x) c), which is the action of
        lamp_compose(a, b) = (f * s.g, s t), with F abelian or not; and only
        the identity lamp fixes every point.  So a lamp sigma is coded as
        that permutation of the points (x, c), x in the sorted X of the
        moves and the lamps, (x, c) numbered |F| i(x) + j(c): the bytes
        whose k-th is the number of sigma^-1(point k).
        (sigma o tau)^-1 = tau^-1 o sigma^-1, so sigma o tau has the code
        of sigma translated by the table k -> tau^-1(k), which is tau's code
        padded to 256 bytes: one bytes.translate.  The inverse of (f, s)
        sends (y, d) to (s^-1 y, f(y)^-1 d), whose number is that of (y, d)
        plus |F| (i(s^-1 y) - i(y)), from s alone, plus j(f(y)^-1 d) - j(d),
        from f(y) alone.  So the code is the identity's plus one term per
        entry (x, y) of s, on the points of y, and one per entry (y, v) of
        f, on the points of y, each computed once per distinct entry.  A
        byte holds at most 256 numbers: None for more points."""
        maps, perms = self._code_entries(itertools.chain(lamps, moves))
        m = self._site_points
        xs = {x for x, _ in maps}.union(x for x, _ in perms)
        n = len(xs) * m
        if n > 256:
            return None
        index = {x: k for k, x in enumerate(sorted(xs))}
        width = 8 * m  # the bits of the points (x, c) of one x
        ones = int.from_bytes(bytes([1]) * m, "little")

        def map_term(entry):  # only a _FiberHalo has map entries
            y, v = entry
            return self._fiber_terms[v] << width * index[y]

        def perm_term(entry):
            x, y = entry
            return (index[x] - index[y]) * m * ones << width * index[y]

        terms = self._code_terms(_TermTable(map_term, maps).__getitem__,
                                 _TermTable(perm_term, perms).__getitem__)
        identity = int.from_bytes(bytes(range(n)), "little")

        def encode(a):
            return (identity + terms(a)).to_bytes(n, "little")

        pad = bytes(range(n, 256))  # a table maps the bytes no point uses to themselves
        return encode, [encode(t) + pad for t in moves], bytes.translate


class _FiberHalo(_PointHalo):
    """Shared set-up of the families whose lamps carry a map H -> F."""

    def __init__(self, fiber: GroupHandle, base: GroupHandle):
        self.fiber = _fiber(self.family, fiber)
        self._fiber_elements = fiber.elements()
        self._site_points = len(self._fiber_elements)
        self.spec = f"{self.family}({fiber.spec}, {base.spec})"
        super().__init__(fiber, base)

    def _canonical(self, mapping: Dict) -> Lamp:
        return _map_canonical(mapping, self.fiber)

    def _map_lamp(self, mapping: Dict) -> Lamp:
        """The canonical map payload of a site -> fiber mapping, checked."""
        if not set(mapping.values()).issubset(self._fiber_elements):
            raise ContractViolation(f"{self.family} lamp value is not an element of "
                                    f"{self.fiber.spec}")
        return self._canonical(mapping)

    def block_elements(self, sites):
        """The maps sites -> fiber, in itertools.product order."""
        e = self.fiber.identity()
        return _entry_block([[(x, v) if v != e else None for v in self._fiber_elements]
                             for x in sorted(sites)])

    @property
    def _fiber_terms(self) -> Dict:
        """v -> the term of a map entry (x, v) at the site x numbered 0: on
        the points (0, c), numbered j(c), the bytes j(v^-1 c) - j(c).  Made
        on first use and kept as a plain attribute (see
        GroupHandle.cayley_ball)."""
        try:
            return self._fiber_term_table
        except AttributeError:
            pass
        fiber, elements = self.fiber, self._fiber_elements
        j = {c: k for k, c in enumerate(elements)}
        identity = int.from_bytes(bytes(range(len(elements))), "little")
        self._fiber_term_table = {
            v: int.from_bytes(bytes(j[fiber.multiply(fiber.invert(v), c)] for c in elements),
                              "little") - identity
            for v in elements}
        return self._fiber_term_table


class WreathHalo(_FiberHalo):
    """F wreath H: lamps are finitely supported maps H -> F."""

    family = "wreath"

    def make_lamp(self, entries: Dict) -> Lamp:
        """entries: site -> fiber element."""
        return self._map_lamp(entries)

    def lamp_compose(self, a, b):
        return _map_compose(dict(a), dict(b), self.fiber)

    def lamp_invert(self, a):
        return self._canonical({x: self.fiber.invert(v) for x, v in a})

    def lamp_act(self, h, a):
        return _map_translate(self.base, h, a, self.fiber)

    def lamp_generators(self):
        e = self.base.identity()
        return [self.make_lamp({e: f}) for f in self.fiber.generators()]

    def _step_lamp(self, a, t):
        ((x, f),) = t
        return _map_times_at(a, x, f, self.fiber)

    def _code_entries(self, lamps):
        return set(itertools.chain.from_iterable(lamps)), set()

    def _code_terms(self, map_term, perm_term):
        return lambda a: sum(map(map_term, a))


class _PermutationHalo(_PointHalo):
    """Shared lamp arithmetic of the permutation families: lamps are finitely
    supported permutations of points on which H acts by ``_move(h, point)``."""

    def make_lamp(self, entries: Dict) -> Lamp:
        """entries: point -> image point, a bijection of its support."""
        return _perm_lamp(entries)

    def lamp_compose(self, a, b):
        return _perm_compose(a, b)

    def lamp_invert(self, a):
        return _perm_invert(a)

    def lamp_act(self, h, a):
        return _perm_translate(self._move, h, a)

    def _step_lamp(self, a, t):
        (P, _), (Q, _) = t  # a transposition, P < Q
        return _perm_swap(a, P, Q)

    def _code_entries(self, lamps):
        return set(), set(itertools.chain.from_iterable(lamps))

    def _code_terms(self, map_term, perm_term):
        return lambda a: sum(map(perm_term, a))


class ShufflerHalo(_PermutationHalo):
    """FSym(H) |x H: lamps are finitely supported permutations of H."""

    family = "shuffler"

    def __init__(self, params, base: GroupHandle):
        """params is ignored: the shuffler has no family parameter."""
        self.spec = f"shuffler({base.spec})"
        super().__init__(None, base)

    def _move(self, h, x):
        return self.base.multiply(h, x)

    def lamp_generators(self):
        e = self.base.identity()
        return [self.make_lamp({e: s, s: e}) for s in self.base.generators()]

    def block_elements(self, sites):
        return _perm_block(sorted(sites))


class JugglerHalo(_PermutationHalo):
    """FSym(H x {0..s-1}) |x H with the track-fixing action h.(x,i)=(hx,i)."""

    family = "juggler"

    def __init__(self, tracks: int, base: GroupHandle):
        self.tracks = _track_count(self.family, tracks)
        self.spec = f"juggler({tracks}, {base.spec})"
        super().__init__(tracks, base)

    def _move(self, h, point):
        x, i = point
        return (self.base.multiply(h, x), i)

    def lamp_sites(self, a):
        return frozenset(x for (x, _i), _ in a)

    def lamp_generators(self):
        e = self.base.identity()
        return [self.make_lamp({(e, i): (s, j), (s, j): (e, i)})
                for s in self.base.generators()
                for i in range(self.tracks) for j in range(self.tracks)]

    def block_elements(self, sites):
        return _perm_block([(x, i) for x in sorted(sites) for i in range(self.tracks)])


class DesignerHalo(_FiberHalo):
    """F wreath_H FSym(H) |x H: lamps are (map H -> F, permutation) pairs."""

    family = "designer"

    def make_lamp(self, entries) -> Lamp:
        """entries: a pair (site -> fiber element, site -> image site)."""
        mapping, perm = entries
        perm = _perm_lamp(perm)
        return (self._map_lamp(mapping), perm)

    def _lamp_entries(self, lamp):
        mapping, perm = lamp
        return (dict(mapping), dict(perm))

    def lamp_identity(self):
        return ((), ())

    def lamp_compose(self, a, b):
        (fa, pa), (fb, pb) = a, b
        # (f, s)(g, t) = (f * (s.g), s t)  with (s.g)(x) = g(s^-1 x)
        dpa = dict(pa)
        shifted = {dpa.get(x, x): v for x, v in fb}
        return (_map_compose(dict(fa), shifted, self.fiber),
                _perm_compose(pa, pb))

    def lamp_invert(self, a):
        fa, pa = a
        pinv = _perm_invert(pa)
        dpinv = dict(pinv)
        out = {dpinv.get(x, x): self.fiber.invert(v) for x, v in fa}
        return (self._canonical(out), pinv)

    def lamp_act(self, h, a):
        fa, pa = a
        return (_map_translate(self.base, h, fa, self.fiber),
                _perm_translate(self.base.multiply, h, pa))

    def lamp_sites(self, a):
        fa, pa = a
        return frozenset(x for x, _ in fa) | frozenset(x for x, _ in pa)

    def _code_entries(self, lamps):
        maps, perms = set(), set()
        for f, s in lamps:
            maps.update(f)
            perms.update(s)
        return maps, perms

    def _code_terms(self, map_term, perm_term):
        return lambda a: sum(map(map_term, a[0])) + sum(map(perm_term, a[1]))

    def _step_lamp(self, a, t):
        (fa, pa), (ft, pt) = a, t
        if ft:  # {x: f}: the value at pa(x) is multiplied by f
            ((x, f),) = ft
            return (_map_times_at(fa, _perm_image(pa, x), f, self.fiber), pa)
        (P, _), (Q, _) = pt
        return (fa, _perm_swap(pa, P, Q))

    def lamp_generators(self):
        e = self.base.identity()
        return ([self.make_lamp(({e: f}, {})) for f in self.fiber.generators()]
                + [self.make_lamp(({}, {e: s, s: e})) for s in self.base.generators()])

    def block_elements(self, sites):
        perms = _perm_block(sorted(sites))
        return [(w, p) for w in super().block_elements(sites) for p in perms]


class _MatrixHalo(HaloGroup):
    """Shared lamp arithmetic of the matrix families over GF(q)."""

    def __init__(self, gf, base: GroupHandle):
        self.gf = gf = _field(self.family, gf)
        self.spec = f"{self.family}(GF{gf.q}, {base.spec})"
        super().__init__(gf, base)

    def _mat_lamp(self, entries: Dict) -> Lamp:
        """The canonical matrix payload of a (p, q) -> entry mapping, each
        entry checked to be an element of GF(q)."""
        q = self.gf.q
        if not all(type(v) is int and 0 <= v < q for v in entries.values()):
            raise ContractViolation(f"{self.family} lamp entry is not an element of GF({q})")
        return _mat_canonical(entries)

    def lamp_compose(self, a, b):
        return _mat_compose(a, b, self.gf)

    def lamp_invert(self, a):
        return _mat_invert(a, self.gf)

    def lamp_act(self, h, a):
        entries = {(self.base.multiply(h, p), self.base.multiply(h, q)): v
                   for (p, q), v in a}
        return _mat_canonical(entries)

    def lamp_sites(self, a):
        return _mat_sites(a)

    def _step_lamp(self, a, t):
        (((P, Q), lam),) = t
        if P == Q:
            return _mat_scale_column(a, P, lam, self.gf)
        return _mat_add_column(a, P, Q, lam, self.gf)

    def _lamp_codes(self, moves, lamps=()):
        """HaloGroup._lamp_codes by ints over GF(2).  With points the n
        sorted sites of the moves and the lamps, a lamp's 0/1 matrix is
        coded column by column: entry (points[r], points[c]) is bit c n + r,
        so the code is the identity's XOR one term per stored entry,
        computed once per distinct entry (the identity holds 1 on the
        diagonal, so a diagonal entry v adds v ^ 1).  A move m is I + N,
        and a m = a + a N adds column k of a to column j for each entry
        (k, j) of N.  Over GF(2) each stored entry of a canonical payload
        differs from the identity's by 1, so N's entries are the move's
        entries: its operand is the tuple of their column shifts (k n, j n),
        and a step XORs each shifted column of the code, all read from the
        code before the step.  None over other fields."""
        if self.gf.q != 2:
            return None
        entries = set(itertools.chain.from_iterable(lamps))
        sites = {x for pq, _ in entries.union(itertools.chain.from_iterable(moves)) for x in pq}
        index = {x: k for k, x in enumerate(sorted(sites))}
        n = len(index)
        mask = (1 << n) - 1
        identity = sum(1 << k * (n + 1) for k in range(n))

        def term(entry):
            (p, q), v = entry
            return (v ^ (p == q)) << (index[q] * n + index[p])

        get = _TermTable(term, entries).__getitem__

        def encode(a):
            return identity ^ sum(map(get, a))

        def step(code, shifts):
            out = code
            for sk, sj in shifts:
                out ^= (code >> sk & mask) << sj
            return out

        operands = [tuple((index[p] * n, index[q] * n) for (p, q), _ in move)
                    for move in moves]
        return encode, operands, step


class ClonerHalo(_MatrixHalo):
    """FGL(H) over GF(q) |x H: finitely supported invertible matrices."""

    family = "cloner"

    def make_lamp(self, entries: Dict) -> Lamp:
        """entries: (p, q) -> matrix entry; unlisted entries are those of
        the identity.  The matrix must be invertible."""
        lamp = self._mat_lamp(entries)
        if lamp:
            try:
                _mat_invert(lamp, self.gf)
            except ContractViolation:
                raise ContractViolation("cloner lamp matrix is singular") from None
        return lamp

    def lamp_generators(self):
        e = self.base.identity()
        gens = []
        for lam in self.gf.units:
            if lam != 1:
                gens.append(self.make_lamp({(e, e): lam}))
        for s in self.base.generators():
            for lam in self.gf.units:
                gens.append(self.make_lamp({(e, s): lam}))
        return gens

    def block_elements(self, sites):
        """Rows are chosen top to bottom, each outside the span of the rows
        above it, every choice in the lexicographic order of GF(q)^n.  A
        vector is coded by its index in that order, so spans are sets of
        ints grown through add/scale tables, and a payload is the
        concatenation of its rows' precomputed entries (sites are sorted,
        so row-major order is payload order)."""
        sites = sorted(sites)
        n = len(sites)
        if n == 0:
            return [self.lamp_identity()]
        gf, q = self.gf, self.gf.q
        vectors = list(itertools.product(range(q), repeat=n))
        code = {v: c for c, v in enumerate(vectors)}
        add = [[code[tuple(map(gf.add, u, v))] for v in vectors] for u in vectors]
        multiples = [[code[tuple(gf.mul(c, x) for x in v)] for c in range(q)]
                     for v in vectors]
        row_entries = [_entry_block([[((p, r), x) if x != (1 if p == r else 0) else None
                                      for x in range(q)] for r in sites])
                       for p in sites]
        out: List[Lamp] = []

        def extend(i, prefix, span):
            rows = row_entries[i]
            if i == n - 1:
                out.extend(prefix + row for c, row in enumerate(rows) if c not in span)
                return
            for c, row in enumerate(rows):
                if c not in span:
                    extend(i + 1, prefix + row,
                           {add[w][m] for w in span for m in multiples[c]})

        extend(0, (), {0})
        return out


class UpclonerHalo(_MatrixHalo):
    """FU(H) |x H: unitriangular matrices w.r.t. the base total order.

    The base must be ordered (``has_total_order``), as every Z^d, H3 and
    product of ordered groups is; this constructor is the one place that
    checks it, for ``make_halo`` and descriptors alike."""

    family = "upcloner"

    def __init__(self, gf, base: GroupHandle):
        if not base.has_total_order:
            raise ContractViolation("order required: upcloner needs a totally ordered base")
        super().__init__(gf, base)

    def make_lamp(self, entries: Dict) -> Lamp:
        """entries: (p, q) -> matrix entry with p < q in the base order."""
        lamp = self._mat_lamp(entries)
        if not all(p < q for (p, q), _ in lamp):
            raise ContractViolation(
                "upcloner lamp must be unitriangular: entry (p,q) requires p < q")
        return lamp

    def lamp_generators(self):
        e = self.base.identity()
        gens = []
        for s in self.base.generators():
            if e < s:
                for lam in self.gf.units:
                    gens.append(self.make_lamp({(e, s): lam}))
        return gens

    def block_elements(self, sites):
        # positions (p, q) with p < q in the base order, in payload order
        pairs = itertools.combinations(sorted(sites), 2)
        return _entry_block([[(pq, v) if v else None for v in self.gf.elements]
                             for pq in pairs])


FAMILIES = {cls.family: cls for cls in (WreathHalo, ShufflerHalo, JugglerHalo,
                                         DesignerHalo, ClonerHalo, UpclonerHalo)}


def make_halo(family: str, params, base: GroupHandle) -> HaloGroup:
    """The halo FAMILIES[family](params, base), generators built.

    params: wreath/designer -> finite fiber GroupHandle; juggler -> track count;
    cloner/upcloner -> GF instance or int q; shuffler -> ignored (None).
    """
    return _of_family(FAMILIES, family)(params, base)


def _of_family(table: Dict, family: str):
    if family not in table:
        raise ContractViolation(f"unknown halo family {family!r}")
    return table[family]


# ---------------------------------------------------------------------------
# the family parameter, read by one check per family, and the lamp growth

def _fiber(family: str, fiber) -> GroupHandle:
    if not isinstance(fiber, GroupHandle):
        raise ContractViolation(f"{family} fiber must be a group, not {fiber!r}")
    if not fiber.is_finite():
        raise ContractViolation(f"{family} fiber must be a finite group")
    return fiber


def _fiber_order(family: str, params) -> int:
    """|F| from the fiber F, or given as an int >= 1 (not a bool)."""
    if type(params) is int and params >= 1:
        return params
    return len(_fiber(family, params).elements())


def _track_count(family: str, tracks) -> int:
    if type(tracks) is not int:  # a bool or 2.0 would give a spec that does not parse
        raise ContractViolation(f"{family} track count must be an int, not {tracks!r}")
    if tracks < 1:
        raise ContractViolation(f"{family} requires at least one track")
    return tracks


def _field(family: str, gf) -> GF:
    """A GF, or GF(q) from an order q that GF accepts."""
    if isinstance(gf, GF):
        return gf
    try:
        return GF(gf)
    except ContractViolation:
        raise ContractViolation(
            f"{family} field must be a GF or an order in {GF.SUPPORTED}, not {gf!r}") from None


def _field_order(family: str, gf) -> int:
    return _field(family, gf).q


def _log_gl_order(q: int, t: float) -> float:
    """ln |GL_t(q)|, linear in t between integers."""
    def ln_at(n: int) -> float:
        return math.fsum(math.log(q ** n - q ** i) for i in range(n))

    lo = math.floor(t)
    frac = t - lo
    return ln_at(lo) if frac == 0 else (1 - frac) * ln_at(lo) + frac * ln_at(lo + 1)


# family -> (check reading k from the parameter, Lambda(n) as an int, ln Lambda(t) for
# real t >= 0); k: |F| for wreath and designer, tracks for juggler, q for the matrices
LAMP_GROWTH = {
    "wreath": (_fiber_order, lambda k, n: k ** n, lambda k, t: t * math.log(k)),
    "shuffler": (lambda *_: None, lambda k, n: math.factorial(n),
                 lambda k, t: math.lgamma(t + 1)),
    "juggler": (_track_count, lambda k, n: math.factorial(k * n),
                lambda k, t: math.lgamma(k * t + 1)),
    "designer": (_fiber_order, lambda k, n: k ** n * math.factorial(n),
                 lambda k, t: t * math.log(k) + math.lgamma(t + 1)),
    "cloner": (_field_order, lambda q, n: math.prod(q ** n - q ** i for i in range(n)),
               _log_gl_order),
    "upcloner": (_field_order, lambda q, n: q ** (n * (n - 1) // 2),
                 lambda q, t: t * (t - 1) / 2 * math.log(q)),
}


def lamp_growth(family: str, params, n: int) -> int:
    """Lambda(n) = |L(F)| for an n-site set F, in exact integer arithmetic."""
    if n < 0:
        raise ContractViolation("n must be >= 0")
    check, exact, _ = _of_family(LAMP_GROWTH, family)
    return exact(check(family, params), n)


def log_lamp_growth(family: str, params, t: float) -> float:
    """ln Lambda(t), continued to real t >= 0."""
    if t < 0:
        raise NotInDomainError("lamp growth needs t >= 0")
    check, _, log = _of_family(LAMP_GROWTH, family)
    return log(check(family, params), t)


def enumerate_block(halo: HaloGroup, sites: Iterable,
                    budget: int = DEFAULT_ENUM_BUDGET) -> List[Lamp]:
    """Complete duplicate-free list of the block L(sites); every site must
    be a base element, and repeated sites count once."""
    sites = list(sites)
    for x in sites:
        if not halo.base.is_element(x):
            raise ContractViolation(f"site {x!r} is not an element of {halo.base.spec}")
    sites = set(sites)  # L(V) depends on the set V: a repeated site adds nothing
    size = halo.growth(len(sites))
    if size > budget:
        raise BudgetError(
            f"block enumeration budget exceeded: Lambda({len(sites)}) = {size} > {budget}")
    return halo.block_elements(sites)


def commutativity_constant(halo: HaloGroup, radius: int,
                           budget: int = DEFAULT_ENUM_BUDGET):
    """Smallest D such that all tested block pairs R, S within Ball(radius)
    at distance >= D commute elementwise, plus a non-commuting witness at
    distance D-1 when D >= 1.

    Tested subsets are the singletons and pairs inside Ball(radius); the
    distance between subsets is min over point pairs of the word metric.
    """
    base = halo.base
    metric = base.cayley_ball.grow(2 * radius).lengths
    window = sorted(g for g, l in metric.items() if l <= radius)

    def dist(a, b):
        return metric[base.multiply(base.invert(a), b)]

    subsets = [frozenset([x]) for x in window]
    subsets += [frozenset(c) for c in itertools.combinations(window, 2)]

    blocks = {s: [l for l in enumerate_block(halo, s, budget) if l != halo.lamp_identity()]
              for s in subsets}

    worst = -1
    witness = None
    for R in subsets:
        for S in subsets:
            d = min(dist(a, b) for a in R for b in S)
            if d <= worst:
                continue
            pair = next(((la, lb) for la in blocks[R] for lb in blocks[S]
                         if halo.lamp_compose(la, lb) != halo.lamp_compose(lb, la)), None)
            if pair is not None:
                worst = d
                witness = tuple((lamp, base.identity()) for lamp in pair)
    D = worst + 1
    return D, (witness if D >= 1 else None)
