"""Independent reference computations for checking halolab's outputs.

Nothing here imports halolab.  Each oracle is written from the
mathematical definition, with its own element arithmetic, so that a
fault in the program cannot hide behind the same fault in its check.
Lamp payloads reach the oracles only as mappings (``dict(payload)``), so
a later change of payload representation inside halolab does not break
them.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

# ---------------------------------------------------------------------------
# connected sets containing the identity

def zd_neighbours(d: int):
    """Right multiplication by the generators +-e_i of Z^d."""
    steps = []
    for i in range(d):
        for sign in (1, -1):
            steps.append(tuple(sign if j == i else 0 for j in range(d)))

    def neighbours(v):
        return [tuple(a + b for a, b in zip(v, s)) for s in steps]

    return (0,) * d, neighbours


def h3_neighbours():
    """Right multiplication by +-x, +-y in the Heisenberg group, where
    (x, y, z) is the matrix [[1, x, z], [0, 1, y], [0, 0, 1]]."""

    def neighbours(v):
        x, y, z = v
        return [(x + 1, y, z), (x - 1, y, z), (x, y + 1, z + x), (x, y - 1, z - x)]

    return (0, 0, 0), neighbours


class ConnectedSets:
    """All connected sets of size <= n_max that contain the identity,
    grown one boundary point at a time and deduplicated as sets.

    ``counts[k]`` is the number of such sets of size k and ``best[k]``
    the largest |A| / |dA| among them, dA being the outer vertex boundary
    AS \\ A.  The growth is breadth first over sizes, which is a
    different algorithm from the program's exclusion-based search.
    """

    def __init__(self, identity, neighbours, n_max: int):
        memo: Dict = {}

        def nbrs(v):
            out = memo.get(v)
            if out is None:
                out = memo[v] = neighbours(v)
            return out

        self.nbrs = nbrs
        level = {frozenset([identity]): frozenset(nbrs(identity))}
        self.counts: Dict[int, int] = {1: 1}
        self.best: Dict[int, Fraction] = {1: Fraction(1, len(level[frozenset([identity])]))}
        for k in range(2, n_max + 1):
            nxt: Dict = {}
            for A, dA in level.items():
                for u in dA:
                    B = A | {u}
                    if B in nxt:
                        continue
                    nxt[B] = (dA - {u}) | frozenset(w for w in nbrs(u) if w not in B)
            level = nxt
            self.counts[k] = len(level)
            self.best[k] = max(Fraction(k, len(dB)) for dB in level.values())

    def total(self) -> int:
        return sum(self.counts.values())

    def boundary_ratio(self, A: Iterable) -> Fraction:
        A = frozenset(A)
        dA = {w for a in A for w in self.nbrs(a) if w not in A}
        return Fraction(len(A), len(dA))

    def is_connected(self, A: Iterable) -> bool:
        A = set(A)
        start = next(iter(A))
        seen = {start}
        stack = [start]
        while stack:
            for w in self.nbrs(stack.pop()):
                if w in A and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == A


# Fixed polyominoes by cell count, OEIS A001168, n = 1..9.  A connected
# set of k cells containing the origin is a polyomino with one of its k
# cells marked, so the Z^2 set counts are k * a(k).
A001168 = (1, 2, 6, 19, 63, 216, 760, 2725, 9910)


# ---------------------------------------------------------------------------
# lamp growth Lambda(n) and natural generating-set sizes over Z

def lamp_growth(family: str, n: int) -> int:
    """|L(R)| for |R| = n, for the families with the parameters the
    benchmark uses: wreath(C2), shuffler, juggler(2), designer(C2),
    cloner(GF2), upcloner(GF2)."""
    if family == "wreath":
        return 2 ** n
    if family == "shuffler":
        return math.factorial(n)
    if family == "juggler":
        return math.factorial(2 * n)
    if family == "designer":
        return 2 ** n * math.factorial(n)
    if family == "cloner":
        out = 1
        for i in range(n):
            out *= 2 ** n - 2 ** i
        return out
    if family == "upcloner":
        return 2 ** (n * (n - 1) // 2)
    raise ValueError(family)


# lamp generators at the origin plus the two base generators +-1 of Z:
# wreath(C2) flips one lamp; shuffler swaps 0 with +-1; juggler(2) swaps
# (0, i) with (+-1, j); designer(C2) has one flip and two swaps; cloner(GF2)
# has the elementary transvections toward +-1 (GF2 has no nontrivial
# diagonal); upcloner(GF2) only the one toward +1.
GENERATORS_OVER_Z = {"wreath": 1 + 2, "shuffler": 2 + 2, "juggler": 8 + 2,
                     "designer": 3 + 2, "cloner": 2 + 2, "upcloner": 1 + 2}


def interval_gradient_ratio(size: int) -> Fraction:
    """||grad f||_1 / ||f||_1 of c * 1_U for an interval U of Z.

    Ordered pairs (g, s) count each boundary edge twice, and an interval
    has two boundary edges, so the gradient is 4c against a norm of c|U|.
    """
    return Fraction(4, size)


# ---------------------------------------------------------------------------
# l1 geometry of Z^d

def l1(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def l1_ball(d: int, radius: int) -> List[Tuple[int, ...]]:
    pts = [()]
    for _ in range(d):
        pts = [p + (x,) for p in pts for x in range(-radius, radius + 1)]
    return [p for p in pts if sum(map(abs, p)) <= radius]


# ---------------------------------------------------------------------------
# reference semidirect-product evaluator

class ReferenceHalo:
    """Elements (lamp mapping, cursor) over an abelian Z^d base with the
    law (s, h)(t, k) = (s * (h . t), h + k), where h . t translates the
    support of t by h.  Lamps are mappings:

    - ``wreath``: site -> nonzero residue mod ``order``;
    - ``shuffler``: site -> image, fixed points omitted; s * t is s
      after t;
    - ``juggler``: the same on points (site, track), moved by h as
      (site + h, track);
    - ``designer``: the pair (site -> residue, permutation), with
      (f, s)(g, t) = (f + s.g, s t) and (s.g)(s(x)) = g(x);
    - ``matrix`` (cloner, upcloner over GF(p)): (row, col) -> entry for
      entries that differ from the identity matrix; s * t is the
      matrix product.
    """

    def __init__(self, kind: str, order: int = 2):
        self.kind = kind
        self.order = order

    # -- lamps ------------------------------------------------------------
    @staticmethod
    def _shift(x, h):
        return tuple(a + b for a, b in zip(x, h))

    def _shift_point(self, x, h):
        if self.kind == "juggler":
            return (self._shift(x[0], h), x[1])
        return self._shift(x, h)

    def act(self, h, lamp):
        if self.kind == "wreath":
            return {self._shift(x, h): v for x, v in lamp.items()}
        if self.kind in ("shuffler", "juggler"):
            return {self._shift_point(x, h): self._shift_point(y, h) for x, y in lamp.items()}
        if self.kind == "designer":
            f, p = lamp
            return ({self._shift(x, h): v for x, v in f.items()},
                    {self._shift(x, h): self._shift(y, h) for x, y in p.items()})
        return {(self._shift(a, h), self._shift(b, h)): v for (a, b), v in lamp.items()}

    def _wreath_add(self, a, b):
        out = dict(a)
        for x, v in b.items():
            s = (out.get(x, 0) + v) % self.order
            if s:
                out[x] = s
            else:
                out.pop(x, None)
        return out

    @staticmethod
    def _perm_mul(a, b):
        out = {}
        for x in set(a) | set(b):
            y = a.get(b.get(x, x), b.get(x, x))
            if y != x:
                out[x] = y
        return out

    def _mat_mul(self, a, b):
        p = self.order
        sites = {s for pq in list(a) + list(b) for s in pq}

        def entry(m, i, j):
            return m.get((i, j), 1 if i == j else 0)

        out = {}
        for i in sites:
            for j in sites:
                v = sum(entry(a, i, k) * entry(b, k, j) for k in sites) % p
                if v != (1 if i == j else 0):
                    out[(i, j)] = v
        return out

    def compose(self, a, b):
        if self.kind == "wreath":
            return self._wreath_add(a, b)
        if self.kind in ("shuffler", "juggler"):
            return self._perm_mul(a, b)
        if self.kind == "designer":
            (fa, pa), (fb, pb) = a, b
            shifted = {pa.get(x, x): v for x, v in fb.items()}
            return (self._wreath_add(fa, shifted), self._perm_mul(pa, pb))
        return self._mat_mul(a, b)

    def invert_lamp(self, a):
        if self.kind == "wreath":
            return {x: (-v) % self.order for x, v in a.items()}
        if self.kind in ("shuffler", "juggler"):
            return {y: x for x, y in a.items()}
        if self.kind == "designer":
            f, p = a
            pinv = {y: x for x, y in p.items()}
            return ({pinv.get(x, x): (-v) % self.order for x, v in f.items()}, pinv)
        return self._mat_inv(a)

    def _mat_inv(self, a):
        p = self.order
        sites = sorted({s for pq in a for s in pq})
        n = len(sites)
        rows = [[a.get((i, j), 1 if i == j else 0) for j in sites] +
                [1 if r == c else 0 for c in range(n)] for r, i in enumerate(sites)]
        for col in range(n):
            piv = next(r for r in range(col, n) if rows[r][col] % p)
            rows[col], rows[piv] = rows[piv], rows[col]
            inv = pow(rows[col][col], p - 2, p)
            rows[col] = [v * inv % p for v in rows[col]]
            for r in range(n):
                if r != col and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[col])]
        out = {}
        for r, i in enumerate(sites):
            for c, j in enumerate(sites):
                v = rows[r][n + c]
                if v != (1 if i == j else 0):
                    out[(i, j)] = v
        return out

    # -- group elements ---------------------------------------------------
    def multiply(self, x, y):
        (sa, ha), (sb, hb) = x, y
        return (self.compose(sa, self.act(ha, sb)), self._shift(ha, hb))

    def invert(self, x):
        s, h = x
        hinv = tuple(-c for c in h)
        return (self.invert_lamp(self.act(hinv, s)), hinv)

    def evaluate(self, word, generators, identity):
        """Product of (generators[i])^e over the word's letters (i, e)."""
        inverses = {}
        out = identity
        for i, e in word:
            g = generators[i]
            if e == -1:
                if i not in inverses:
                    inverses[i] = self.invert(g)
                g = inverses[i]
            elif e != 1:
                raise ValueError(f"exponent {e}")
            out = self.multiply(out, g)
        return out


def lamp_mapping(kind: str, payload):
    """The mapping a payload stands for; designer payloads are pairs."""
    if kind == "designer":
        f, p = payload
        return (dict(f), dict(p))
    return dict(payload)


def mapping_key(kind: str, payload):
    """A total order on lamps that depends only on the mapping."""
    m = lamp_mapping(kind, payload)
    if kind == "designer":
        return (sorted(m[0].items()), sorted(m[1].items()))
    return sorted(m.items())


# ---------------------------------------------------------------------------
# graphs

def verify_isomorphism(mapping, vertices1, edges1, vertices2, edges2) -> bool:
    """mapping is a bijection from vertices1 onto vertices2 that sends
    every edge of graph 1 to an edge of graph 2, and both graphs have the
    same number of edges."""
    if (set(mapping) != set(vertices1) or set(mapping.values()) != set(vertices2)
            or len(mapping) != len(vertices2)):
        return False
    if len(edges1) != len(edges2):
        return False
    for e in edges1:
        u, v = tuple(e)
        if frozenset((mapping[u], mapping[v])) not in edges2:
            return False
    return True


def lamplighter_counts(k: int, m: int) -> Tuple[int, int, int]:
    """(vertices, edges, degree) of the lamplighter graph of K_k over K_m
    with unrestricted support: maps {1..m} -> {1..k} times a position;
    a move edge changes the position, a lamp edge the value there."""
    vertices = m * k ** m
    edges = k ** m * m * (m - 1) // 2 + m * k ** (m - 1) * k * (k - 1) // 2
    return vertices, edges, (m - 1) + (k - 1)


def ystar_counts(k: int, net: List, move_radius: int) -> Tuple[int, int]:
    """(vertices, edges) of Y* over a net in Z^d: a k-element block at
    each of the m net sites, and a cursor on a net site.  Lamp edges
    change the block element under the cursor, move edges join net sites
    at l1 distance <= move_radius."""
    m = len(net)
    moves = sum(1 for i in range(m) for j in range(i + 1, m)
                if l1(net[i], net[j]) <= move_radius)
    return m * k ** m, k ** m * moves + m * k ** (m - 1) * k * (k - 1) // 2
