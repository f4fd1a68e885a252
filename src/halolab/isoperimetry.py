"""Boundaries, l^p gradients, isoperimetric profiles, Folner functions,
the almost-invariant lift, the power transform, and product boundaries.

Conventions fixed once here: gradient sums run over ordered pairs (g, s)
with s ranging over the full symmetric generator list, so each geometric
edge is counted twice.  p = 1 is exact rational arithmetic end-to-end;
p > 1 uses compensated float summation with p-th roots at the last step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import BudgetError, ContractViolation
from .groups import GroupHandle, ProductGroup, ball
from .halo import HaloGroup, enumerate_block, DEFAULT_ENUM_BUDGET

Rational = Union[Fraction, int]
Value = Union[Fraction, float]


@dataclass(frozen=True)
class FiniteFunction:
    """Finitely supported map group element -> value, with norm exponent p.

    Values are exact Fractions when p = 1 workflows demand exactness;
    floats are accepted for p > 1 pipelines.  Zero entries are not stored.
    """

    entries: Dict[Any, Value]
    p: Rational = 1

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           {g: v for g, v in self.entries.items() if v != 0})

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

    @property
    def ratio_value(self) -> float:
        return math.inf if self.ratio is None else float(self.ratio)


@dataclass(frozen=True)
class ProfilePoint:
    n: int
    value: Optional[Fraction]  # None encodes +infinity
    witness: Any
    method: str
    exact: bool

    @property
    def value_float(self) -> float:
        return math.inf if self.value is None else float(self.value)


def boundary(group: GroupHandle, A: Iterable) -> SubsetWitness:
    """Exact boundary AS \\ A over the full generator list."""
    A = frozenset(A)
    if not A:
        raise ContractViolation("boundary of the empty set is undefined")
    gens = group.generators()
    out = set()
    for a in A:
        for s in gens:
            b = group.multiply(a, s)
            if b not in A:
                out.add(b)
    ratio = Fraction(len(A), len(out)) if out else None
    return SubsetWitness(A, frozenset(out), ratio)


def gradient_ratio(group: GroupHandle, f: FiniteFunction) -> Value:
    """||grad f||_p / ||f||_p, summed over ordered (g, s) pairs.

    Only pairs with g or gs in supp f contribute; the sum iterates
    supp f x generators once, adding the mirrored term |f(g)|^p whenever
    gs leaves the support (that term is the (gs, s^-1) contribution).
    """
    if not f.entries:
        raise ContractViolation("gradient_ratio of the empty function")
    p = f.p
    gens = group.generators()
    entries = f.entries
    if p == 1:
        grad = Fraction(0)
        for g, v in entries.items():
            for s in gens:
                w = entries.get(group.multiply(g, s), 0)
                grad += abs(v - w)
                if w == 0:
                    grad += abs(v)
        return grad / f.norm()
    pf = float(p)
    terms = []
    for g, v in entries.items():
        v = float(v)
        for s in gens:
            w = float(entries.get(group.multiply(g, s), 0))
            terms.append(abs(v - w) ** pf)
            if w == 0.0:
                terms.append(abs(v) ** pf)
    return math.fsum(terms) ** (1.0 / pf) / f.norm()


# ---------------------------------------------------------------------------
# exact profile: connected, basepoint-containing subsets of a ball

class _NeighbourTable:
    """Ball(radius + 1) indexed by integers.

    The window Ball(radius) comes first, in sort_key order, so on the
    window index order is sort_key order.  nbr[i] lists the index of
    elements[i] * s for every s in the full generator list (multiplicity
    kept) and adj[i] its neighbours inside the window, in index order;
    both exist for window vertices only.
    """

    def __init__(self, group: GroupHandle, radius: int):
        b = ball(group, radius + 1)
        self.elements = sorted(b.elements,
                               key=lambda g: (b.lengths[g] > radius, group.sort_key(g)))
        index = {g: i for i, g in enumerate(self.elements)}
        window = sum(1 for g in self.elements if b.lengths[g] <= radius)
        gens = group.generators()
        self.nbr = [[index[group.multiply(g, s)] for s in gens]
                    for g in self.elements[:window]]
        self.adj = [sorted(j for j in row if j < window) for row in self.nbr]


def _connected_subsets(table: _NeighbourTable, v0: int, n_max: int, budget: int):
    """Yield (S, |dS|) for every connected subset S of the window that
    contains v0 and has at most n_max elements, each set once.

    Exclusion-based enumeration: a child extends S by one candidate, and
    the candidates taken by its earlier siblings are banned below it.
    seen marks S, the banned vertices and the candidates, so the new
    candidates of a child are the unseen window neighbours of the vertex
    it adds.  S is the live list of indices in insertion order: copy it
    to keep it.

    |dS| is kept incrementally: cnt[t] counts the pairs (a, s) with a in S
    and a * s = t, and bnd counts the t with cnt[t] > 0 outside S.  Adding
    or removing a vertex updates both in O(|generators|).  budget caps the
    number of sets yielded; BudgetError is raised on the next one.
    """
    nbr, adj = table.nbr, table.adj
    size = len(table.elements)
    cnt = [0] * size
    in_s = [False] * size
    seen = [False] * size
    seen[v0] = True
    S: List[int] = []
    bnd = 0
    count = 0

    def extend(cand: List[int]):
        nonlocal bnd, count
        for i, u in enumerate(cand):
            new = [w for w in adj[u] if not seen[w]]
            for w in new:
                seen[w] = True
            if cnt[u]:
                bnd -= 1
            in_s[u] = True
            S.append(u)
            for t in nbr[u]:
                cnt[t] += 1
                if cnt[t] == 1 and not in_s[t]:
                    bnd += 1
            count += 1
            if count > budget:
                raise BudgetError(f"connected-subset budget exceeded ({budget})")
            yield S, bnd
            if len(S) < n_max:
                yield from extend(cand[i + 1:] + new)
            for t in nbr[u]:
                cnt[t] -= 1
                if cnt[t] == 0 and not in_s[t]:
                    bnd -= 1
            S.pop()
            in_s[u] = False
            if cnt[u]:
                bnd += 1
            for w in new:
                seen[w] = False

    yield from extend([v0])


def _beats(group: GroupHandle, cand: SubsetWitness,
           incumbent: Optional[SubsetWitness]) -> bool:
    """The one witness order: larger ratio first (None is +infinity), then
    the lexicographically smallest sorted sort_key list, computed on ties only."""
    if incumbent is None:
        return True
    c = math.inf if cand.ratio is None else cand.ratio
    i = math.inf if incumbent.ratio is None else incumbent.ratio
    if c != i:
        return c > i
    return sorted(map(group.sort_key, cand.A)) < sorted(map(group.sort_key, incumbent.A))


def _carry_forward(group: GroupHandle, best: Dict[int, SubsetWitness], n_max: int,
                   method: str, exact: bool) -> List[ProfilePoint]:
    """Point n carries the best witness of any size <= n; best[1] must exist."""
    points = []
    top: Optional[SubsetWitness] = None
    for n in range(1, n_max + 1):
        if n in best and _beats(group, best[n], top):
            top = best[n]
        points.append(ProfilePoint(n, top.ratio, top, method, exact))
    return points


def profile_exact(group: GroupHandle, n_max: int, radius: int,
                  budget: int = 2 * 10 ** 6) -> List[ProfilePoint]:
    """Exact l^1 profile over connected subsets of Ball(radius) containing
    the identity, sizes <= n_max.

    Restricting to connected sets containing the basepoint is harmless:
    a disconnected optimum has a component with at least the same ratio
    (component boundaries are disjoint or shared, either way |dA| >= sum),
    and translating that component to contain the identity changes
    nothing.  The ball restriction is provably harmless when
    radius >= n_max - 1, since a connected set of size n containing the
    identity lies in Ball(n-1); points are flagged exact accordingly.

    The search builds Ball(radius + 1) once, indexes it by integers and
    tabulates each window element's right multiples by the generators
    (one generators() call, |window| * |generators| multiplies).  The
    enumeration itself does no group arithmetic: _connected_subsets keeps
    |dS| by boundary multiplicity counters, updated in O(|generators|)
    integer steps per added or removed element, so a visited set costs
    O(|generators|) plus its share of the candidate lists.  Sets of one
    size compare by |dS|; boundary() builds a witness only on a tie (for
    _beats) and for each size's final witness.

    budget caps the number of subsets visited, each visited set counting
    once.  The visit order is fixed, so a truncated search always reaches
    the same sets.  A search that runs out keeps the best witnesses found
    so far and marks every point exact=False: each value is then a lower
    bound.
    """
    if n_max < 1:
        raise ContractViolation("n_max must be >= 1")
    if budget < 1:
        raise ContractViolation("budget must be >= 1")
    if radius < 0:
        raise ContractViolation("radius must be >= 0")
    table = _NeighbourTable(group, radius)
    elements = table.elements

    def witness(S) -> SubsetWitness:
        return boundary(group, [elements[i] for i in S])

    # Sets of one size compare by |dS| alone (smaller is a larger ratio,
    # 0 is +infinity); a witness is built only on a tie, for _beats.
    found: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    built: Dict[int, SubsetWitness] = {}
    exact = radius >= n_max - 1
    try:
        for S, bnd in _connected_subsets(table, elements.index(group.identity()),
                                         n_max, budget):
            k = len(S)
            if k not in found or bnd < found[k][0]:
                found[k] = (bnd, tuple(S))
                built.pop(k, None)
            elif bnd == found[k][0]:
                if k not in built:
                    built[k] = witness(found[k][1])
                w = witness(S)
                if _beats(group, w, built[k]):
                    found[k] = (bnd, tuple(S))
                    built[k] = w
    except BudgetError:
        exact = False
    best = {k: built[k] if k in built else witness(S) for k, (_, S) in found.items()}
    return _carry_forward(group, best, n_max, "exact", exact)


def profile_heuristic(group: GroupHandle, n_max: int, method: str = "greedy",
                      seed: int = 0, steps: int = 2000) -> List[ProfilePoint]:
    """Witness-certified lower bounds on the profile.

    greedy: grow A from the identity, always adding the boundary vertex
    minimizing the resulting |dA| (ties broken by sort key).
    anneal: Metropolis over add/remove moves with geometric cooling
    T_k = 1.0 * 0.995^k for the given number of steps, seeded.
    """
    import random as _random

    gens_ = group.generators()
    e = group.identity()
    best: Dict[int, SubsetWitness] = {1: boundary(group, [e])}

    def consider(A: frozenset):
        w = boundary(group, A)
        if _beats(group, w, best.get(len(A))):
            best[len(A)] = w

    if method == "greedy":
        A = frozenset([e])
        while len(A) < n_max:
            w = boundary(group, A)
            if not w.boundary:
                break
            cand = sorted(w.boundary, key=group.sort_key)

            def score(u):
                in_A = sum(1 for s in gens_ if group.multiply(u, s) in A)
                return (len(boundary(group, A | {u}).boundary), -in_A,
                        group.sort_key(u))

            pick = min(cand, key=score)
            A = A | {pick}
            consider(A)
    elif method == "anneal":
        rng = _random.Random(seed)
        A = frozenset([e])
        cur = boundary(group, A)
        for k in range(steps):
            T = 1.0 * (0.995 ** k)
            add = len(A) == 1 or rng.random() < 0.6
            if add and len(A) < n_max and cur.boundary:
                u = rng.choice(sorted(cur.boundary, key=group.sort_key))
                nxt = A | {u}
            elif len(A) > 1:
                u = rng.choice(sorted(A - {e}, key=group.sort_key))
                nxt = A - {u}
            else:
                continue
            wn = boundary(group, nxt)
            cur_cost = len(cur.boundary) / len(A)
            nxt_cost = len(wn.boundary) / len(nxt)
            if nxt_cost <= cur_cost or rng.random() < math.exp((cur_cost - nxt_cost) / max(T, 1e-9)):
                A, cur = nxt, wn
                consider(A)
    else:
        raise ContractViolation(f"unknown heuristic method {method!r}")

    return _carry_forward(group, best, n_max, method, False)


def folner_function(points: Sequence[ProfilePoint], target: Fraction):
    """Least witnessed |A| with |dA|/|A| <= target; None if no witness
    qualifies (search exhausted marker).

    With heuristic points the result is an upper bound on the Folner value.
    """
    best: Optional[int] = None
    for pt in points:
        w = pt.witness
        if not isinstance(w, SubsetWitness):
            continue
        qualifies = (not w.boundary) or Fraction(len(w.boundary), len(w.A)) <= target
        if qualifies and (best is None or len(w.A) < best):
            best = len(w.A)
    return best


def spectral_refine(group: GroupHandle, A: Iterable,
                    tol: float = 1e-10, max_iter: int = 10 ** 4) -> ProfilePoint:
    """Optimal l^2 function supported on A: principal eigenvector of the
    support-restricted gradient quadratic form, by inverse power iteration.

    For f supported in A the form is Q(f) = 2(|S| ||f||^2 - <f, W f>) with
    W the within-A adjacency (counted with multiplicity over generators),
    so the minimizer is the top eigenvector of W, found by power iteration
    on (W + |S| I) to guarantee positivity of the shift.
    """
    A = sorted(frozenset(A), key=group.sort_key)
    if not A:
        raise ContractViolation("spectral_refine of the empty set")
    idx = {a: i for i, a in enumerate(A)}
    gens = group.generators()
    m = len(A)
    W = [[0.0] * m for _ in range(m)]
    for a in A:
        i = idx[a]
        for s in gens:
            j = idx.get(group.multiply(a, s))
            if j is not None:
                W[i][j] += 1.0
    shift = float(len(gens))
    v = [1.0 / math.sqrt(m)] * m
    mu = 0.0
    for _ in range(max_iter):
        w = [math.fsum(W[i][j] * v[j] for j in range(m)) + shift * v[i]
             for i in range(m)]
        norm = math.sqrt(math.fsum(x * x for x in w))
        w = [x / norm for x in w]
        mu_new = norm - shift
        if abs(mu_new - mu) < tol:
            mu = mu_new
            v = w
            break
        mu, v = mu_new, w
    f = FiniteFunction({a: v[idx[a]] for a in A}, 2)
    ratio = gradient_ratio(group, f)
    # profile convention: value = ||f|| / ||grad f||, larger is better
    value = None if ratio == 0 else Fraction(1.0 / ratio).limit_denominator(10 ** 12)
    return ProfilePoint(m, value, f, "spectral", False)


# ---------------------------------------------------------------------------
# the almost-invariant lift and the power transform

def almost_invariant_lift(halo: HaloGroup, f: FiniteFunction,
                          budget: int = DEFAULT_ENUM_BUDGET) -> FiniteFunction:
    """g(sigma, h) = f(h) * [sigma in L(V)] with V = U union U.S_H.

    U = supp f in the base; V adds all generator translates of U, so every
    conjugated lamp generator met from U stays inside L(V) and the gradient
    ratio of g equals that of f (exactly at p = 1).
    |supp g| = |U| * Lambda(|V|).
    """
    base = halo.base
    U = list(f.support)
    V = set(U)
    for s in base.generators():
        V.update(base.multiply(u, s) for u in U)
    block = enumerate_block(halo, V, budget)
    entries = {}
    for h in U:
        v = f(h)
        for lamp in block:
            entries[(lamp, h)] = v
    return FiniteFunction(entries, f.p)


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
