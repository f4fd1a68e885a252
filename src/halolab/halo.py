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
group equality.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import BudgetError, ContractViolation
from .gf import GF
from .groups import Ball, GroupHandle, ball

Lamp = Tuple  # canonical payload tuple, family-specific
DEFAULT_ENUM_BUDGET = 10 ** 6


# ---------------------------------------------------------------------------
# permutation payload helpers (tuples of (x, sigma(x)) pairs, no fixed points)

def _perm_apply(p: Dict, x):
    return p.get(x, x)


def _perm_canonical(mapping: Dict, key) -> Lamp:
    items = [(x, y) for x, y in mapping.items() if x != y]
    items.sort(key=lambda xy: key(xy[0]))
    return tuple(items)


def _perm_compose(a: Lamp, b: Lamp, key) -> Lamp:
    # (a o b)(x) = a(b(x))
    da, db = dict(a), dict(b)
    out = {}
    for x in set(da) | set(db):
        out[x] = _perm_apply(da, _perm_apply(db, x))
    return _perm_canonical(out, key)


def _perm_invert(a: Lamp, key) -> Lamp:
    return _perm_canonical({y: x for x, y in a}, key)


def _perm_translate(base: GroupHandle, h, a: Lamp, key) -> Lamp:
    """h . a: the permutation x -> h a(h^-1 x)."""
    return _perm_canonical({base.multiply(h, x): base.multiply(h, y) for x, y in a}, key)


def _perm_check(a: Lamp):
    dom = [x for x, _ in a]
    img = [y for _, y in a]
    if len(set(dom)) != len(dom) or set(dom) != set(img):
        raise ContractViolation("permutation payload is not a bijection on its support")
    if any(x == y for x, y in a):
        raise ContractViolation("permutation payload stores a fixed point")


# ---------------------------------------------------------------------------
# map payload helpers (tuples of (x, f(x)) pairs, no fiber-identity values)

def _map_canonical(mapping: Dict, fiber: GroupHandle, key) -> Lamp:
    e = fiber.identity()
    items = [(x, v) for x, v in mapping.items() if v != e]
    items.sort(key=lambda xv: key(xv[0]))
    return tuple(items)


def _map_compose(da: Dict, db: Dict, fiber: GroupHandle, key) -> Lamp:
    """Pointwise product of two maps given as dicts."""
    e = fiber.identity()
    out = {x: fiber.multiply(da.get(x, e), db.get(x, e)) for x in set(da) | set(db)}
    return _map_canonical(out, fiber, key)


def _map_translate(base: GroupHandle, h, a: Lamp, fiber: GroupHandle, key) -> Lamp:
    """h . a: the map x -> a(h^-1 x)."""
    return _map_canonical({base.multiply(h, x): v for x, v in a}, fiber, key)


# ---------------------------------------------------------------------------
# matrix payload helpers (tuples of ((p, q), v) deviations from identity)

def _mat_canonical(entries: Dict, gf: GF, key) -> Lamp:
    items = []
    for (p, q), v in entries.items():
        ident = 1 if p == q else 0
        if v != ident:
            items.append(((p, q), v))
    items.sort(key=lambda e: (key(e[0][0]), key(e[0][1])))
    return tuple(items)


def _mat_sites(a: Lamp) -> FrozenSet:
    out = set()
    for (p, q), _ in a:
        out.add(p)
        out.add(q)
    return frozenset(out)


def _mat_entry(a: Dict, p, q, gf: GF) -> int:
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


def _mat_compose(a: Lamp, b: Lamp, gf: GF, key) -> Lamp:
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
    return _mat_canonical(out, gf, key)


def _mat_rows(a: Lamp, sites: Sequence, gf: GF) -> List[List[int]]:
    d = dict(a)
    return [[_mat_entry(d, p, q, gf) for q in sites] for p in sites]


def _mat_from_rows(rows: Sequence[Sequence[int]], sites: Sequence, gf: GF, key) -> Lamp:
    entries = {}
    for i, p in enumerate(sites):
        for j, q in enumerate(sites):
            entries[(p, q)] = rows[i][j]
    return _mat_canonical(entries, gf, key)


def _mat_invert(a: Lamp, gf: GF, key) -> Lamp:
    sites = sorted(_mat_sites(a), key=key)
    n = len(sites)
    rows = _mat_rows(a, sites, gf)
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
    return _mat_from_rows(inv_rows, sites, gf, key)


def _mat_is_invertible(a: Lamp, gf: GF, key) -> bool:
    try:
        _mat_invert(a, gf, key)
        return True
    except ContractViolation:
        return False


# ---------------------------------------------------------------------------
# the halo handle

class HaloGroup(GroupHandle):
    """Common machinery for all six families."""

    family: str = "?"

    def __init__(self, base: GroupHandle):
        self.base = base
        self._gens: Optional[List] = None
        self._base_balls: Dict[int, Ball] = {}

    # -- family interface ---------------------------------------------------
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

    def block_elements(self, sites: Sequence) -> List[Lamp]:
        """Complete list of L(sites); call via enumerate_block for budgeting."""
        raise NotImplementedError

    def growth(self, n: int) -> int:
        raise NotImplementedError

    def site_key(self, site):
        return self.base.sort_key(site)

    # -- GroupHandle --------------------------------------------------------
    def identity(self):
        return (self.lamp_identity(), self.base.identity())

    def multiply(self, a, b):
        (sa, ha), (sb, hb) = a, b
        return (self.lamp_compose(sa, self.lamp_act(ha, sb)), self.base.multiply(ha, hb))

    def invert(self, a):
        sa, ha = a
        hinv = self.base.invert(ha)
        return (self.lamp_invert(self.lamp_act(hinv, sa)), hinv)

    def generators(self):
        if self._gens is None:
            lamp_part = [(g, self.base.identity()) for g in self.lamp_generators()]
            base_part = [(self.lamp_identity(), s) for s in self.base.generators()]
            self._gens = lamp_part + base_part
            self._base_gen_offset = len(lamp_part)
        return self._gens

    @property
    def base_gen_offset(self) -> int:
        self.generators()
        return self._base_gen_offset

    def sort_key(self, a):
        lamp, cursor = a
        return (lamp, self.base.sort_key(cursor))

    def element_str(self, a):
        lamp, cursor = a
        return f"lamp={lamp!r} cursor={self.base.element_str(cursor)}"

    def element_json(self, a) -> dict:
        lamp, cursor = a
        return {
            "lamp": {"variant": self.family, "entries": [repr(e) for e in lamp]},
            "cursor": self.base.element_str(cursor),
        }

    # -- shared helpers -----------------------------------------------------
    def base_ball(self, radius: int) -> Ball:
        if radius not in self._base_balls:
            self._base_balls[radius] = ball(self.base, radius)
        return self._base_balls[radius]

    def base_word(self, h, max_radius: int = 64) -> List[Tuple[int, int]]:
        """Geodesic word for the base move (1, h), as halo generator indices."""
        r = 1
        while r <= max_radius:
            b = self.base_ball(r)
            if h in b:
                off = self.base_gen_offset
                return [(off + i, 1) for i, _ in ((i, e) for i, e in b.word_to(h))]
            r += 1
        raise ContractViolation(f"base element {h!r} not within radius {max_radius}")


def act(halo: HaloGroup, h, lamp: Lamp) -> Lamp:
    """The translation action (h . sigma)(x) = h sigma(h^-1 x)."""
    return halo.lamp_act(h, lamp)


class WreathHalo(HaloGroup):
    """F wreath H: lamps are finitely supported maps H -> F."""

    family = "wreath"

    def __init__(self, fiber: GroupHandle, base: GroupHandle):
        if not fiber.is_finite():
            raise ContractViolation("wreath fiber must be a finite group")
        super().__init__(base)
        self.fiber = fiber
        self._fiber_elements = fiber.elements()
        self.spec = f"wreath({fiber.spec}, {base.spec})"

    def _canonical(self, mapping: Dict) -> Lamp:
        return _map_canonical(mapping, self.fiber, self.site_key)

    def lamp_compose(self, a, b):
        return _map_compose(dict(a), dict(b), self.fiber, self.site_key)

    def lamp_invert(self, a):
        return self._canonical({x: self.fiber.invert(v) for x, v in a})

    def lamp_act(self, h, a):
        return _map_translate(self.base, h, a, self.fiber, self.site_key)

    def lamp_sites(self, a):
        return frozenset(x for x, _ in a)

    def lamp_generators(self):
        e = self.base.identity()
        gens = []
        for f in self.fiber.generators():
            lamp = self._canonical({e: f})
            if lamp and lamp not in gens:
                gens.append(lamp)
        return gens

    def block_elements(self, sites):
        sites = sorted(sites, key=self.site_key)
        out = []
        for values in itertools.product(self._fiber_elements, repeat=len(sites)):
            out.append(self._canonical(dict(zip(sites, values))))
        return out

    def growth(self, n):
        return len(self._fiber_elements) ** n


class ShufflerHalo(HaloGroup):
    """FSym(H) |x H: lamps are finitely supported permutations of H."""

    family = "shuffler"

    def __init__(self, base: GroupHandle):
        super().__init__(base)
        self.spec = f"shuffler({base.spec})"

    def lamp_compose(self, a, b):
        return _perm_compose(a, b, self.site_key)

    def lamp_invert(self, a):
        return _perm_invert(a, self.site_key)

    def lamp_act(self, h, a):
        return _perm_translate(self.base, h, a, self.site_key)

    def lamp_sites(self, a):
        return frozenset(x for x, _ in a)

    def lamp_generators(self):
        e = self.base.identity()
        gens = []
        for s in self.base.generators():
            lamp = _perm_canonical({e: s, s: e}, self.site_key)
            if lamp not in gens:
                gens.append(lamp)
        return gens

    def block_elements(self, sites):
        sites = sorted(sites, key=self.site_key)
        out = []
        for images in itertools.permutations(sites):
            out.append(_perm_canonical(dict(zip(sites, images)), self.site_key))
        return out

    def growth(self, n):
        return math.factorial(n)


class JugglerHalo(HaloGroup):
    """FSym(H x {0..s-1}) |x H with the track-fixing action h.(x,i)=(hx,i)."""

    family = "juggler"

    def __init__(self, tracks: int, base: GroupHandle):
        if tracks < 1:
            raise ContractViolation("juggler requires at least one track")
        super().__init__(base)
        self.tracks = tracks
        self.spec = f"juggler({tracks}, {base.spec})"

    def site_key(self, point):
        x, i = point
        return (self.base.sort_key(x), i)

    def lamp_compose(self, a, b):
        return _perm_compose(a, b, self.site_key)

    def lamp_invert(self, a):
        return _perm_invert(a, self.site_key)

    def lamp_act(self, h, a):
        moved = {}
        for (x, i), (y, j) in a:
            moved[(self.base.multiply(h, x), i)] = (self.base.multiply(h, y), j)
        return _perm_canonical(moved, self.site_key)

    def lamp_sites(self, a):
        return frozenset(x for (x, _i), _ in a)

    def lamp_generators(self):
        e = self.base.identity()
        gens = []
        for s in self.base.generators():
            for i in range(self.tracks):
                for j in range(self.tracks):
                    p, q = (e, i), (s, j)
                    lamp = _perm_canonical({p: q, q: p}, self.site_key)
                    if lamp not in gens:
                        gens.append(lamp)
        return gens

    def block_elements(self, sites):
        points = [(x, i) for x in sorted(sites, key=self.base.sort_key)
                  for i in range(self.tracks)]
        out = []
        for images in itertools.permutations(points):
            out.append(_perm_canonical(dict(zip(points, images)), self.site_key))
        return out

    def growth(self, n):
        return math.factorial(self.tracks * n)


class DesignerHalo(HaloGroup):
    """F wreath_H FSym(H) |x H: lamps are (map H -> F, permutation) pairs."""

    family = "designer"

    def __init__(self, fiber: GroupHandle, base: GroupHandle):
        if not fiber.is_finite():
            raise ContractViolation("designer fiber must be a finite group")
        super().__init__(base)
        self.fiber = fiber
        self._fiber_elements = fiber.elements()
        self.spec = f"designer({fiber.spec}, {base.spec})"

    def lamp_identity(self):
        return ((), ())

    def _wcanon(self, mapping):
        return _map_canonical(mapping, self.fiber, self.site_key)

    def lamp_compose(self, a, b):
        (fa, pa), (fb, pb) = a, b
        # (f, s)(g, t) = (f * (s.g), s t)  with (s.g)(x) = g(s^-1 x)
        dpa = dict(pa)
        shifted = {_perm_apply(dpa, x): v for x, v in fb}
        return (_map_compose(dict(fa), shifted, self.fiber, self.site_key),
                _perm_compose(pa, pb, self.site_key))

    def lamp_invert(self, a):
        fa, pa = a
        pinv = _perm_invert(pa, self.site_key)
        dpinv = dict(pinv)
        out = {_perm_apply(dpinv, x): self.fiber.invert(v) for x, v in fa}
        return (self._wcanon(out), pinv)

    def lamp_act(self, h, a):
        fa, pa = a
        return (_map_translate(self.base, h, fa, self.fiber, self.site_key),
                _perm_translate(self.base, h, pa, self.site_key))

    def lamp_sites(self, a):
        fa, pa = a
        return frozenset(x for x, _ in fa) | frozenset(x for x, _ in pa)

    def lamp_generators(self):
        e = self.base.identity()
        gens = []
        for f in self.fiber.generators():
            lamp = (self._wcanon({e: f}), ())
            if lamp[0] and lamp not in gens:
                gens.append(lamp)
        for s in self.base.generators():
            lamp = ((), _perm_canonical({e: s, s: e}, self.site_key))
            if lamp not in gens:
                gens.append(lamp)
        return gens

    def block_elements(self, sites):
        sites = sorted(sites, key=self.site_key)
        perms = [_perm_canonical(dict(zip(sites, images)), self.site_key)
                 for images in itertools.permutations(sites)]
        out = []
        for values in itertools.product(self._fiber_elements, repeat=len(sites)):
            wpart = self._wcanon(dict(zip(sites, values)))
            for p in perms:
                out.append((wpart, p))
        return out

    def growth(self, n):
        return len(self._fiber_elements) ** n * math.factorial(n)


class _MatrixHalo(HaloGroup):
    """Shared lamp arithmetic of the matrix families over GF(q)."""

    def __init__(self, gf: GF, base: GroupHandle):
        super().__init__(base)
        self.gf = gf
        self.spec = f"{self.family}(GF{gf.q}, {base.spec})"

    def lamp_compose(self, a, b):
        return _mat_compose(a, b, self.gf, self.site_key)

    def lamp_invert(self, a):
        return _mat_invert(a, self.gf, self.site_key)

    def lamp_act(self, h, a):
        entries = {(self.base.multiply(h, p), self.base.multiply(h, q)): v
                   for (p, q), v in a}
        return _mat_canonical(entries, self.gf, self.site_key)

    def lamp_sites(self, a):
        return _mat_sites(a)


class ClonerHalo(_MatrixHalo):
    """FGL(H) over GF(q) |x H: finitely supported invertible matrices."""

    family = "cloner"

    def make_lamp(self, entries: Dict) -> Lamp:
        """Canonicalize and validate a user-supplied deviation map."""
        lamp = _mat_canonical(entries, self.gf, self.site_key)
        if lamp and not _mat_is_invertible(lamp, self.gf, self.site_key):
            raise ContractViolation("cloner lamp matrix is singular")
        return lamp

    def lamp_generators(self):
        e = self.base.identity()
        gens = []
        for lam in self.gf.units:
            if lam != 1:
                gens.append(_mat_canonical({(e, e): lam}, self.gf, self.site_key))
        for s in self.base.generators():
            for lam in self.gf.units:
                gens.append(_mat_canonical({(e, s): lam}, self.gf, self.site_key))
        return gens

    def block_elements(self, sites):
        sites = sorted(sites, key=self.site_key)
        n = len(sites)
        q = self.gf.q
        vectors = list(itertools.product(range(q), repeat=n))

        def add_vec(u, v):
            return tuple(self.gf.add(a, b) for a, b in zip(u, v))

        def scale_vec(c, u):
            return tuple(self.gf.mul(c, a) for a in u)

        out = []
        zero = (0,) * n

        def extend(rows, span):
            if len(rows) == n:
                out.append(_mat_from_rows(rows, sites, self.gf, self.site_key))
                return
            for v in vectors:
                if v in span:
                    continue
                new_span = set()
                for w in span:
                    for c in range(q):
                        new_span.add(add_vec(w, scale_vec(c, v)))
                extend(rows + [list(v)], new_span)

        extend([], {zero})
        return out

    def growth(self, n):
        q = self.gf.q
        out = 1
        for i in range(n):
            out *= q ** n - q ** i
        return out


class UpclonerHalo(_MatrixHalo):
    """FU(H) |x H: unitriangular matrices w.r.t. the base total order."""

    family = "upcloner"

    def __init__(self, gf: GF, base: GroupHandle):
        if not base.has_total_order:
            raise ContractViolation("order required: upcloner needs a totally ordered base")
        super().__init__(gf, base)

    def make_lamp(self, entries: Dict) -> Lamp:
        lamp = _mat_canonical(entries, self.gf, self.site_key)
        self._check_unitriangular(lamp)
        return lamp

    def _check_unitriangular(self, lamp: Lamp):
        for (p, q), _v in lamp:
            if p == q or self.base.compare(p, q) >= 0:
                raise ContractViolation(
                    "upcloner lamp must be unitriangular: entry (p,q) requires p < q")

    def lamp_generators(self):
        e = self.base.identity()
        gens = []
        for s in self.base.generators():
            if self.base.compare(e, s) < 0:
                for lam in self.gf.units:
                    gens.append(_mat_canonical({(e, s): lam}, self.gf, self.site_key))
        return gens

    def block_elements(self, sites):
        sites = sorted(sites, key=self.site_key)
        # order positions by the base total order so (p,q) with p<q is upper
        import functools
        ordered = sorted(sites, key=functools.cmp_to_key(self.base.compare))
        pairs = [(ordered[i], ordered[j])
                 for i in range(len(ordered)) for j in range(i + 1, len(ordered))]
        out = []
        for values in itertools.product(self.gf.elements, repeat=len(pairs)):
            entries = {pq: v for pq, v in zip(pairs, values)}
            out.append(_mat_canonical(entries, self.gf, self.site_key))
        return out

    def growth(self, n):
        return self.gf.q ** (n * (n - 1) // 2)


def make_halo(family: str, params, base: GroupHandle) -> HaloGroup:
    """Factory for the six families.

    params: wreath/designer -> fiber GroupHandle; juggler -> track count;
    cloner/upcloner -> GF instance (or int q); shuffler -> None.
    """
    if family == "wreath":
        return WreathHalo(params, base)
    if family == "shuffler":
        return ShufflerHalo(base)
    if family == "juggler":
        return JugglerHalo(params, base)
    if family == "designer":
        return DesignerHalo(params, base)
    if family == "cloner":
        return ClonerHalo(params if isinstance(params, GF) else GF(params), base)
    if family == "upcloner":
        return UpclonerHalo(params if isinstance(params, GF) else GF(params), base)
    raise ContractViolation(f"unknown halo family {family!r}")


def lamp_growth(family: str, params, n: int) -> int:
    """Closed-form lamp growth value, exact integer arithmetic."""
    if n < 0:
        raise ContractViolation("n must be >= 0")
    if family == "wreath" or family == "designer":
        size = params if isinstance(params, int) else len(params.elements())
        out = size ** n
        return out * math.factorial(n) if family == "designer" else out
    if family == "shuffler":
        return math.factorial(n)
    if family == "juggler":
        return math.factorial(params * n)
    q = params.q if isinstance(params, GF) else params
    if family == "cloner":
        out = 1
        for i in range(n):
            out *= q ** n - q ** i
        return out
    if family == "upcloner":
        return q ** (n * (n - 1) // 2)
    raise ContractViolation(f"unknown halo family {family!r}")


def enumerate_block(halo: HaloGroup, sites: Iterable,
                    budget: int = DEFAULT_ENUM_BUDGET) -> List[Lamp]:
    """Complete duplicate-free list of the block L(sites)."""
    sites = list(sites)
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
    window = sorted(ball(base, radius).elements, key=base.sort_key)
    metric = ball(base, 2 * radius).lengths

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
            for la in blocks[R]:
                for lb in blocks[S]:
                    if halo.lamp_compose(la, lb) != halo.lamp_compose(lb, la):
                        worst = d
                        witness = ((la, base.identity()), (lb, base.identity()))
                        break
                else:
                    continue
                break
    D = worst + 1
    return D, (witness if D >= 1 else None)
