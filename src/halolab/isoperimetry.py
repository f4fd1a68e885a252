"""Boundaries, l^p gradients, isoperimetric profiles, Folner functions,
the almost-invariant lift, the power transform, and product boundaries.

Conventions fixed once here: gradient sums run over ordered pairs (g, s)
with s ranging over the full symmetric generator list, so each geometric
edge is counted twice.  p = 1 with int/Fraction values is exact: the
values are scaled to integers by the lcm of their denominators, so the
gradient sums integers and the ratio is a Fraction.  Float values (at
p = 1 too) and p > 1 use compensated float summation with p-th roots at
the last step.
"""
from __future__ import annotations

import math
import random
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat, starmap
from operator import neg, not_, sub
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import ContractViolation
from .groups import Ball, GroupHandle, ProductGroup
from .halo import HaloGroup, enumerate_block, DEFAULT_ENUM_BUDGET

Rational = Union[Fraction, int]
Value = Union[Fraction, float]


@dataclass(frozen=True)
class FiniteFunction:
    """Finitely supported map group element -> value, with norm exponent p.

    Values are exact Fractions when p = 1 workflows demand exactness;
    floats are accepted for p > 1 pipelines.  Zero entries are not stored:
    the entries are a copy of the caller's mapping, and each distinct value
    object is compared with 0 once.  The one exception is the product
    U x L(V) of an almost-invariant lift (_LiftEntries), which is
    read-only and holds only a FiniteFunction's stored values, so it is
    kept as given, with no copy and no zero pass.
    """

    entries: Mapping
    p: Rational = 1

    def __post_init__(self):
        if not self.p >= 1:
            raise ContractViolation(f"norm exponent p must be >= 1, not {self.p!r}")
        if isinstance(self.entries, _LiftEntries):
            return
        values = self.entries.values()
        distinct = dict(zip(map(id, values), values))
        zeros = {i for i, v in distinct.items() if v == 0}
        if zeros:
            entries = {g: v for g, v in self.entries.items() if id(v) not in zeros}
        else:
            entries = dict(self.entries)
        object.__setattr__(self, "entries", entries)

    @property
    def support(self):
        return self.entries.keys()

    def __call__(self, g):
        return self.entries.get(g, 0)

    def norm(self) -> Value:
        p = self.p
        if p == 1:
            return sum(abs(v) for v in self.entries.values())
        total = math.fsum(abs(v) ** float(p) for v in self.entries.values())
        return total ** (1.0 / float(p))


@dataclass(frozen=True)
class SubsetWitness:
    """A finite set with its exact boundary AS \\ A and ratio |A|/|dA|.

    ratio is None when the boundary is empty (finite group, whole set):
    the ratio is then +infinity.
    """

    A: FrozenSet
    boundary: FrozenSet
    ratio: Optional[Fraction]


@dataclass(frozen=True)
class ProfilePoint:
    n: int
    value: Optional[Fraction]  # None encodes +infinity
    witness: SubsetWitness
    method: str
    exact: bool

    @property
    def value_float(self) -> float:
        return math.inf if self.value is None else float(self.value)


def boundary(group: GroupHandle, A: Iterable) -> SubsetWitness:
    """Exact boundary AS \\ A over the full generator list, each a * s
    taken by group.step."""
    A = frozenset(A)
    if not A:
        raise ContractViolation("boundary of the empty set is undefined")
    steps = range(len(group.generators()))
    step = group.step
    out = set()
    for a in A:
        for i in steps:
            b = step(a, i)
            if b not in A:
                out.add(b)
    ratio = Fraction(len(A), len(out)) if out else None
    return SubsetWitness(A, frozenset(out), ratio)


def gradient_ratio(group: GroupHandle, f: FiniteFunction) -> Value:
    """||grad f||_p / ||f||_p, summed over ordered (g, s) pairs.

    Only pairs with g or gs in supp f contribute; the sum runs once over
    the rows of group.step_rows, which hold each (g, s) with g in supp f
    once, adding the mirrored term |f(g)|^p whenever gs leaves the support
    (that term is the (gs, s^-1) contribution).  Each distinct value
    object of f is scaled to an integer (or made a float) once, and
    step_rows reads f's support paired with those plain numbers in one
    lazy pass, with no copy of f.  At p = 1 exact, the rows read a
    neighbour outside the support as -f(g): |f(g) - (-f(g))| = 2|f(g)| is
    the pair's term plus its mirror, so each row sums |a - b| in one pass
    (an inside neighbour of value -f(g) has that term too, with no
    mirror).  Float values and p > 1 read 0 outside and add |a|^p wherever
    b is 0 (_row_terms); the float terms stream into math.fsum, whose
    correctly rounded sum does not depend on their order.
    """
    if not f.entries:
        raise ContractViolation("gradient_ratio of the empty function")
    p = f.p
    vals = f.entries.values()
    distinct = dict(zip(map(id, vals), vals))
    exact = p == 1 and all(isinstance(v, (int, Fraction)) for v in distinct.values())
    if exact:
        scale = math.lcm(*{v.denominator for v in distinct.values()})
        value = {i: v.numerator * (scale // v.denominator) for i, v in distinct.items()}
    else:
        value = {i: float(v) for i, v in distinct.items()}

    def plain():  # f's values in plain numbers, in support order
        return map(value.__getitem__, map(id, vals))

    if exact:
        rows = group.step_rows(zip(f.entries, plain()), neg)
        grad = sum(sum(map(abs, map(sub, vs, ws))) for vs, ws in rows)
        return Fraction(grad, sum(map(abs, plain())))
    terms = chain.from_iterable(starmap(_row_terms, group.step_rows(zip(f.entries, plain()))))
    pf = float(p)
    return math.fsum(map(pow, map(abs, terms), repeat(pf))) ** (1.0 / pf) / f.norm()


def _row_terms(a, ws):
    """a - b, then a wherever b is 0, over one row (a, b = list(ws)): the
    gradient terms of a row before their absolute value and power."""
    b = list(ws)
    return chain(map(sub, a, b), compress(a, map(not_, b)))


# ---------------------------------------------------------------------------
# exact profile: connected, basepoint-containing subsets of a ball

def _ordered_image(group: GroupHandle) -> Optional[Callable[[Any], Any]]:
    """A homomorphism pi from the group onto an ordered group (one whose
    ``<`` is left-invariant), or None: the identity on an ordered group,
    the base's pi of the cursor on a halo whose base has one (nested halos
    recurse)."""
    if group.has_total_order:
        return lambda x: x
    if isinstance(group, HaloGroup):
        inner = _ordered_image(group.base)
        if inner is not None:
            return lambda x: inner(x[1])
    return None


class _NeighbourTable:
    """The region within depth steps of the identity, indexed by integers.

    The region is what one breadth-first search reaches from the identity
    in depth steps.  It comes first, in element order, so on the region
    comparing sorted index tuples is comparing sorted element lists; then
    come the targets of its vertices outside it, in first-seen order.
    targets[i] lists the distinct indices of elements[i] * s over the
    generators s, in generator order, and adj[i] those inside the region,
    in index order; both exist for region vertices only.

    With a root map pi, the search steps only through vertices x with
    pi(x) >= pi(identity), so the region and adj hold only those and a
    search over adj is rooted (see profile_exact); targets are never
    filtered, as boundaries are taken in the whole group.  The search is a
    Ball with that keep predicate, under its memory guard.
    """

    def __init__(self, group: GroupHandle, depth: int,
                 root: Optional[Callable[[Any], Any]] = None):
        keep = None
        if root is not None:
            floor = root(group.identity())
            keep = lambda g: not root(g) < floor
        region = sorted(Ball(group, keep).grow(depth).elements)
        step = group.step
        steps = range(len(group.generators()))
        rows = [[step(g, i) for i in steps] for g in region]
        index = {g: i for i, g in enumerate(region)}
        outside = list(dict.fromkeys(t for row in rows for t in row if t not in index))
        index.update(zip(outside, range(len(region), len(region) + len(outside))))
        self.elements = region + outside
        self.targets = [list(dict.fromkeys(map(index.__getitem__, row))) for row in rows]
        window = len(region)
        self.adj = [sorted(j for j in row if j < window) for row in self.targets]


def _exact_search(table: _NeighbourTable, v0: int, n_max: int,
                  budget: int) -> Tuple[Dict[int, Tuple[int, Tuple[int, ...]]], bool]:
    """Visit the connected subsets S of the region that contain v0 and have
    at most n_max elements, each set once, and return ({k: (|dS|, sorted
    index tuple of S)} for the best set S of each size k visited, whether
    every set was visited).  The best set of a size has the least |dS|,
    and among those the least sorted index tuple.

    Exclusion-based enumeration: a child extends S by one candidate, and
    the candidates taken by its earlier siblings are banned below it.
    seen marks S, the banned vertices and the candidates, so the new
    candidates of a child are the unseen region neighbours of the vertex
    it adds.  The recursion runs on an explicit stack with one (candidates,
    next position, added vertex, its new candidates) frame per vertex of
    S, and visits the sets in depth-first preorder.

    |dS| is kept incrementally: cnt[t] counts the a in S that have t among
    their targets (a * s = t for some generator s), and bnd counts the t
    with cnt[t] > 0 outside S.  Adding or removing a vertex updates both
    in O(|generators|).  A set of size n_max has no children, so when
    |S| = n_max - 1 each candidate u is scored as a leaf without being
    added: adding u takes u out of the boundary if cnt[u] > 0, and puts a
    target t of u into it iff nothing in S reaches t (cnt[t] == 0) and t
    is not in S (t != u, as no generator is the identity).  So every leaf
    has |dS| >= bnd - 1, and when bnd - 1 exceeds the best |dS| of size
    n_max so far no leaf of S can win and none is scored; the leaves still
    count against the budget.

    budget caps the number of sets visited, leaves included.  The visit
    order is fixed, so a truncated search visits the first budget sets.
    """
    adj, targets = table.adj, table.targets
    size = len(table.elements)
    cnt = [0] * size
    in_s = [False] * size
    seen = [False] * size
    seen[v0] = True
    unset = size + 1  # above every |dS|: no set of that size visited yet
    best_b = [unset] * (n_max + 1)
    best_s: List[Tuple[int, ...]] = [()] * (n_max + 1)
    S: List[int] = []
    bnd = 0
    left = budget
    complete = True
    stack = []
    cand, i = [v0], 0
    while True:
        if len(S) == n_max - 1:
            if len(cand) > left:
                cand, complete = cand[:left], False
            left -= len(cand)
            lb, ls = best_b[n_max], best_s[n_max]
            if bnd - 1 <= lb:  # else no leaf can win: each has |dS| >= bnd - 1
                for u in cand:
                    b = bnd - 1 if cnt[u] else bnd
                    for t in targets[u]:
                        if not cnt[t] and not in_s[t]:
                            b += 1
                    if b <= lb:
                        key = tuple(sorted(S + [u]))
                        if b < lb or key < ls:
                            lb, ls = b, key
                best_b[n_max], best_s[n_max] = lb, ls
            if not complete:
                break
        elif i < len(cand):
            if not left:
                complete = False
                break
            left -= 1
            u = cand[i]
            i += 1
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
            k = len(S)
            if bnd <= best_b[k]:
                key = tuple(sorted(S))
                if bnd < best_b[k] or key < best_s[k]:
                    best_b[k], best_s[k] = bnd, key
            stack.append((cand, i, u, new))
            cand, i = cand[i:] + new, 0
            continue
        if not stack:
            break
        cand, i, u, new = stack.pop()
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
    return ({k: (best_b[k], best_s[k]) for k in range(1, n_max + 1) if best_b[k] != unset},
            complete)


def _beats(cand: SubsetWitness, incumbent: Optional[SubsetWitness]) -> bool:
    """The one witness order: larger ratio first (None is +infinity), then
    the lexicographically smallest sorted element list, computed on ties
    only.

    profile_exact's search applies this order without building witnesses:
    two sets of one size tie on ratio iff they tie on |dS|, and on its
    region index order is element order, so the element lists compare as
    the sorted index tuples do."""
    if incumbent is None:
        return True
    c = math.inf if cand.ratio is None else cand.ratio
    i = math.inf if incumbent.ratio is None else incumbent.ratio
    if c != i:
        return c > i
    return sorted(cand.A) < sorted(incumbent.A)


def _carry_forward(best: Dict[int, SubsetWitness], n_max: int,
                   method: str, exact: bool) -> List[ProfilePoint]:
    """Point n carries the best witness of any size <= n; best[1] must exist."""
    points = []
    top: Optional[SubsetWitness] = None
    for n in range(1, n_max + 1):
        if n in best and _beats(best[n], top):
            top = best[n]
        points.append(ProfilePoint(n, top.ratio, top, method, exact))
    return points


def profile_exact(group: GroupHandle, n_max: int, radius: int,
                  budget: int = 2 * 10 ** 6) -> List[ProfilePoint]:
    """Exact l^1 profile over connected subsets of Ball(radius) containing
    the identity, sizes <= n_max.

    ``exact`` means exact over connected sets through the identity: the
    value at n is the best ratio of a connected set of size <= n, which
    bounds j(n) from below.  That it is j(n) itself is not proved.
    Components of a set may share boundary points, and then |dA| is less
    than the sum of theirs: in Z, A = {0, 2} has dA = {-1, 1, 3}, and
    3 < 2 + 2.  With a generating set the library does not build, (+-1, 0)
    and (+-1, 1) on Z x C2, the set {(0, 0), (0, 1)} has ratio 1/2 and
    every connected 2-set 1/3.  What holds is a split into clusters, the
    components of the graph that joins points at distance <= 2: their
    boundaries are disjoint and miss the other clusters, so a set's ratio
    is at most its best cluster's, and j(n) is the best ratio over
    clusters of size <= n (translating one to contain the identity changes
    nothing).  On the shipped generating sets the tests find the cluster
    optimum equal to this search's at small n.  The ball restriction is
    provably harmless when radius >= n_max - 1, since a connected set of
    size n containing the identity lies in Ball(n-1); points are flagged
    exact accordingly.

    Under that same condition the search is rooted.  Left translation is
    an automorphism of the right Cayley graph, so g*A has the boundary
    size of A.  Let pi be a homomorphism onto a group whose ``<`` is
    left-invariant (_ordered_image: the identity on an ordered group, the
    cursor's on a halo over one).  Translating a connected A by a^-1, for
    an a in A of least pi(a), gives a set that contains the identity and
    has pi(x) >= pi(identity) for all its x; it lies in Ball(n-1) again.
    So the search drops from the window every x with pi(x) < pi(identity)
    and still meets every translation class.  On an ordered group it
    meets each class once, at the translate whose least element is the
    identity.  Below radius n_max - 1 a translate can leave the window,
    and the search stays unrooted.

    The search reads only the region its sets can reach: the vertices
    within min(radius, n_max - 1) steps of the identity, stepping through
    rooted vertices only when the search is rooted (a rooted set is
    connected through its own vertices, all of them rooted).  Below
    radius n_max - 1 the region is Ball(radius).  One breadth-first search
    finds the region, under Ball's memory guard; it is indexed by integers
    in element order, and each region element's right multiples by the
    generators are tabulated (|region| * |generators| steps), so a radius
    far above n_max - 1 costs nothing more.  The enumeration,
    _exact_search, does no group arithmetic and has no generators: it
    walks an explicit stack of candidate frames and keeps |dS| by boundary
    multiplicity counters, updated in O(|generators|) integer steps per
    added or removed element.
    A set of the largest size n_max is a leaf, scored from the counters
    without being added: |dS u {u}| = |dS| - [cnt[u] > 0] + #{distinct
    targets t of u with cnt[t] == 0, t not in S}.  A target reached by two
    generators of u joins the boundary once, hence distinct.  Sets of one
    size compare by |dS| and then by sorted index tuple, which on the
    region is _beats's order (see there), so boundary() runs once per
    size, for the final witness.  A set of size n_max - 1 whose |dS| - 1
    already exceeds the best leaf's is not scored: no leaf of it can win.

    budget caps the number of subsets visited, each visited set counting
    once; a rooted search visits only rooted sets.  The visit order is
    fixed, so a truncated search always reaches the same sets.  A search
    that runs out keeps the best witnesses found so far and marks every
    point exact=False: each value is then a lower bound.
    """
    if n_max < 1:
        raise ContractViolation("n_max must be >= 1")
    if budget < 1:
        raise ContractViolation("budget must be >= 1")
    if radius < 0:
        raise ContractViolation("radius must be >= 0")
    root = _ordered_image(group) if radius >= n_max - 1 else None
    table = _NeighbourTable(group, min(radius, n_max - 1), root)
    elements = table.elements
    found, complete = _exact_search(table, elements.index(group.identity()), n_max, budget)
    best = {k: boundary(group, [elements[i] for i in S]) for k, (_, S) in found.items()}
    return _carry_forward(best, n_max, "exact", complete and radius >= n_max - 1)


def profile_heuristic(group: GroupHandle, n_max: int, method: str = "greedy",
                      seed: int = 0, steps: int = 2000) -> List[ProfilePoint]:
    """Witness-certified lower bounds on the profile.

    greedy: grow A from the identity, always adding the boundary vertex
    minimizing the resulting |dA| = |dA| - 1 + #{distinct u * s outside
    A and dA}, scored as _exact_search scores a leaf (ties broken by more
    neighbours in A, then by element order).
    anneal: Metropolis over add/remove moves with geometric cooling
    T_k = 1.0 * 0.995^k for the given number of steps, seeded.
    """
    if n_max < 1:
        raise ContractViolation("n_max must be >= 1")
    indices = range(len(group.generators()))
    e = group.identity()
    best: Dict[int, SubsetWitness] = {1: boundary(group, [e])}

    def consider(w: SubsetWitness):
        if _beats(w, best.get(len(w.A))):
            best[len(w.A)] = w

    if method == "greedy":
        A = frozenset([e])
        w = best[1]
        while len(A) < n_max and w.boundary:
            closed = A | w.boundary

            def score(u):
                targets = [group.step(u, i) for i in indices]
                grown = len(w.boundary) - 1 + len({t for t in targets if t not in closed})
                return (grown, -sum(1 for t in targets if t in A), u)

            A = A | {min(w.boundary, key=score)}
            w = boundary(group, A)
            consider(w)
    elif method == "anneal":
        rng = random.Random(seed)
        A = frozenset([e])
        cur = boundary(group, A)
        for k in range(steps):
            T = 1.0 * (0.995 ** k)
            add = len(A) == 1 or rng.random() < 0.6
            if add and len(A) < n_max and cur.boundary:
                u = rng.choice(sorted(cur.boundary))
                nxt = A | {u}
            elif len(A) > 1:
                u = rng.choice(sorted(A - {e}))
                nxt = A - {u}
            else:
                continue
            wn = boundary(group, nxt)
            cur_cost = len(cur.boundary) / len(A)
            nxt_cost = len(wn.boundary) / len(nxt)
            if nxt_cost <= cur_cost or rng.random() < math.exp((cur_cost - nxt_cost) / max(T, 1e-9)):
                A, cur = nxt, wn
                consider(wn)
    else:
        raise ContractViolation(f"unknown heuristic method {method!r}")

    return _carry_forward(best, n_max, method, False)


def folner_function(points: Sequence[ProfilePoint], target: Fraction):
    """Least witnessed |A| with |dA|/|A| <= target; None if no witness
    qualifies (search exhausted marker).

    With heuristic points the result is an upper bound on the Folner value.
    """
    best: Optional[int] = None
    for pt in points:
        w = pt.witness
        qualifies = (not w.boundary) or Fraction(len(w.boundary), len(w.A)) <= target
        if qualifies and (best is None or len(w.A) < best):
            best = len(w.A)
    return best


# ---------------------------------------------------------------------------
# the almost-invariant lift and the power transform

_ABSENT = object()  # the default that tells a missing key from any stored value


class _LiftEntries(Mapping):
    """The entries of an almost-invariant lift, kept as the product they
    are: (lamp, h) -> f(h) for each cursor h of U = supp f and each lamp of
    the block L(V), a read-only mapping over f's entries (h -> f(h), in
    support order, values non-zero) and the block (in block order).

    keys, values and items run cursor by cursor, each cursor's lamps in
    block order, which is the order of a dict filled by those two loops,
    and yield f's own value objects; none of them looks an entry up.  A
    lookup (``[]``, ``get``, ``in``) takes the cursor from f's entries and
    the lamp from a frozenset of the block, made on the first lookup, so a
    key whose cursor is not in U or whose lamp is not in L(V) is missing,
    as it is from that dict.
    """

    __slots__ = ("_cursors", "_block", "_lamps")

    def __init__(self, cursors: Mapping, block: Sequence):
        self._cursors = cursors
        self._block = block
        self._lamps: Optional[FrozenSet] = None

    def __len__(self):
        return len(self._cursors) * len(self._block)

    def __iter__(self):
        block = self._block
        return chain.from_iterable(zip(block, repeat(h)) for h in self._cursors)

    def get(self, key, default=None):
        if not (isinstance(key, tuple) and len(key) == 2):
            return default
        value = self._cursors.get(key[1], _ABSENT)
        if value is _ABSENT:
            return default
        if self._lamps is None:
            self._lamps = frozenset(self._block)
        return value if key[0] in self._lamps else default

    def __getitem__(self, key):
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def __contains__(self, key):
        return self.get(key, _ABSENT) is not _ABSENT

    def values(self):
        return _LiftValues(self)

    def items(self):
        return _LiftItems(self)


class _LiftValues(ValuesView):
    """f(h) once for each lamp of the block, cursor by cursor."""

    def __iter__(self):
        m = self._mapping
        return chain.from_iterable(map(repeat, m._cursors.values(), repeat(len(m._block))))


class _LiftItems(ItemsView):
    """((lamp, h), f(h)) in the order of the keys."""

    def __iter__(self):
        block = self._mapping._block
        return chain.from_iterable(zip(zip(block, repeat(h)), repeat(v))
                                   for h, v in self._mapping._cursors.items())


def almost_invariant_lift(halo: HaloGroup, f: FiniteFunction,
                          budget: int = DEFAULT_ENUM_BUDGET) -> FiniteFunction:
    """g(sigma, h) = f(h) * [sigma in L(V)] with V = U union U.S_H.

    U = supp f in the base; V adds all generator translates of U, so every
    conjugated lamp generator met from U stays inside L(V) and the gradient
    ratio of g equals that of f (exactly at p = 1).
    |supp g| = |U| * Lambda(|V|).  g's entries are the product U x L(V)
    itself (_LiftEntries over f's entries and the block), in the order of
    a dict filled cursor by cursor in f's support order, each cursor's
    lamps in block order, and no (lamp, cursor) key is hashed.
    """
    base = halo.base
    U = list(f.support)
    V = set(U)
    for s in base.generators():
        V.update(base.multiply(u, s) for u in U)
    return FiniteFunction(_LiftEntries(f.entries, enumerate_block(halo, V, budget)), f.p)


def power_transform(f: FiniteFunction, p: Rational, q: Rational) -> FiniteFunction:
    """h = |f|^(p/q); exact when the exponent is an integer."""
    p, q = Fraction(p), Fraction(q)
    if not p > q or q < 1:
        raise ContractViolation("power_transform requires p > q >= 1")
    v = p / q
    entries = {}
    for g, val in f.entries.items():
        a = abs(val)
        if v.denominator == 1 and isinstance(a, (int, Fraction)):
            entries[g] = a ** v.numerator
        else:
            entries[g] = float(a) ** float(v)
    return FiniteFunction(entries, q)


def power_transform_bound(group: GroupHandle, f: FiniteFunction,
                          p: Rational, q: Rational) -> Tuple[float, float]:
    """(lhs, rhs) of the transform inequality:
    ||grad h||_q/||h||_q <= 2^(1/q) |S|^((p-q)/(pq)) (p/q) ||grad f||_p/||f||_p."""
    p, q = Fraction(p), Fraction(q)
    fp = FiniteFunction(f.entries, p)
    h = power_transform(fp, p, q)
    lhs = float(gradient_ratio(group, h))
    S = len(group.generators())
    const = 2 ** (1 / float(q)) * S ** (float(p - q) / float(p * q)) * float(p / q)
    rhs = const * float(gradient_ratio(group, fp))
    return lhs, rhs


def product_boundary(gA: GroupHandle, gB: GroupHandle, A: Iterable, B: Iterable) -> SubsetWitness:
    """Boundary of A x B in the direct product with the union generating
    set; verifies d(AxB) = (dA x B) union (A x dB) before returning."""
    A, B = frozenset(A), frozenset(B)
    prod = ProductGroup(gA, gB)
    AxB = frozenset((a, b) for a in A for b in B)
    w = boundary(prod, AxB)
    wA = boundary(gA, A)
    wB = boundary(gB, B)
    formula = frozenset((x, b) for x in wA.boundary for b in B) | \
        frozenset((a, y) for a in A for y in wB.boundary)
    if w.boundary != formula:
        raise AssertionError("product boundary identity failed; this falsifies the lemma")
    return w
