"""Symbolic bound expressions, the continuous lamp-growth inverse
phi_inverse, and least-squares bound-comparison reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .errors import ContractViolation, NotInDomainError
from .halo import log_lamp_growth

_LN_SAFETY = 1.000001  # margin over the iterated-exponential domain floor
_REL_TOL = 1e-9  # phi_inverse stops once its bracket is this narrow, relatively


def _tower(n: int) -> float:
    """e ^^ n (tetration): smallest x with ln applied n times staying real."""
    out = 1.0
    for _ in range(n):
        out = math.exp(out)
    return out


@dataclass(frozen=True)
class BoundExpr:
    """An evaluable monotone bound n -> value with a documented domain floor."""

    name: str
    fn: Callable[[float], float]
    domain_min: float = 1.0
    conditional: bool = False  # depends on an untestable asymptotic assumption

    def __call__(self, x: float) -> float:
        if x < self.domain_min:
            raise NotInDomainError(
                f"bound {self.name} is undefined below {self.domain_min}")
        return self.fn(x)

    # combinators -----------------------------------------------------------
    def over(self, denom: "BoundExpr", name: Optional[str] = None) -> "BoundExpr":
        return BoundExpr(name or f"{self.name}/{denom.name}",
                         lambda x: self.fn(x) / denom(x),
                         max(self.domain_min, denom.domain_min),
                         self.conditional or denom.conditional)


def identity_bound() -> BoundExpr:
    return BoundExpr("x", lambda x: x, 0.0)


def power(alpha: float) -> BoundExpr:
    return BoundExpr(f"x^{alpha:g}", lambda x: x ** alpha, 0.0)


def iterated_log(n: int) -> BoundExpr:
    """ln applied n times; refuses x below e^^(n-1) * safety margin."""
    if n < 1:
        raise ContractViolation("iterated_log requires n >= 1")
    floor = _tower(n - 1) * _LN_SAFETY

    def fn(x: float) -> float:
        out = x
        for _ in range(n):
            out = math.log(out)
        return out

    name = "ln" if n == 1 else f"ln^{n}"
    return BoundExpr(name, fn, floor)


def log_over_loglog() -> BoundExpr:
    """ln(x)/ln(ln(x)), the shuffler profile-argument template."""
    return iterated_log(1).over(iterated_log(2), "ln/lnln")


# ---------------------------------------------------------------------------
# phi(t) = t Lambda(t) and phi_inverse, over halo.log_lamp_growth

def phi(family: str, params, t: float) -> float:
    """phi(t) = t * Lambda(t), continuously in t >= 1."""
    if t <= 0:
        raise NotInDomainError("phi needs t > 0")
    return math.exp(math.log(t) + log_lamp_growth(family, params, t))


def phi_inverse(family: str, params, x: float) -> float:
    """Inverse of the strictly increasing phi by bisection, to relative
    width _REL_TOL."""
    lo = 1.0
    if x < phi(family, params, lo):
        raise NotInDomainError(
            f"x = {x} below phi(1) = {phi(family, params, lo)}")
    hi = 2.0
    while phi(family, params, hi) < x:
        lo, hi = hi, hi * 2
    while (hi - lo) > _REL_TOL * hi:
        mid = (lo + hi) / 2
        if phi(family, params, mid) < x:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# bound reports

@dataclass(frozen=True)
class BoundFit:
    bound: str
    dilation: int
    c: float
    rms_residual: float
    points_used: int
    conditional: bool
    note: str = "finite-range indication, not a proof"


def bound_report(points: Sequence, bounds: Sequence[BoundExpr],
                 dilations: Sequence[int] = (1,)) -> List[BoundFit]:
    """Least-squares constants c fitting value ~ c * bound(K n) per bound
    and dilation K, with root-mean-square residuals."""
    if not points:
        raise ContractViolation("bound_report needs at least one point")
    rows = []
    data = [(pt.n, float(pt.value)) for pt in points
            if pt.value is not None]
    for b in bounds:
        for K in dilations:
            xs, ys = [], []
            for n, v in data:
                if K * n < b.domain_min:
                    continue
                bv = b(K * n)
                if math.isfinite(bv) and bv > 0:
                    xs.append(bv)
                    ys.append(v)
            if not xs:
                continue
            c = math.fsum(x * y for x, y in zip(xs, ys)) / math.fsum(x * x for x in xs)
            rms = math.sqrt(math.fsum((y - c * x) ** 2 for x, y in zip(xs, ys)) / len(xs))
            rows.append(BoundFit(b.name, K, c, rms, len(xs), b.conditional))
    return rows
